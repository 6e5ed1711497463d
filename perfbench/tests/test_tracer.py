"""Self-time arithmetic, wrapper installation and code-derived span counts."""

import numpy as np
import pytest

import negacap
import run
from negacap import cli, entcap, families
from tracer import Tracer, by_layer, kernel_n3, per_name, self_times


def test_self_times_on_a_nested_tree():
    # root [0, 10] has children a [1, 4] and d [5, 9]; a has child b [2, 3]
    names = ["cli.main", "linalg.trace_norm", "lapack.svd", "entcap.gamma_norm"]
    name_id = [0, 1, 2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    self_s = self_times(start, end, parent)
    assert self_s.tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert self_s.sum() == pytest.approx(10.0)  # self times tile the root
    stats = per_name(names, name_id, self_s)
    layers = by_layer(stats, ("cli", "linalg", "entcap", "lapack", "io"))
    assert layers["cli"] == (1, pytest.approx(3.0))
    assert layers["linalg"] == (1, pytest.approx(2.0))
    assert layers["lapack"] == (1, pytest.approx(1.0))
    assert layers["io"] == (0, 0.0)


def test_same_layer_nesting_is_not_double_counted():
    names = ["linalg.trace_norm", "linalg.schatten_norm", "linalg.singular_values"]
    start, end, parent = [0.0, 1.0, 2.0], [6.0, 5.0, 4.0], [-1, 0, 1]
    stats = per_name(names, [0, 1, 2], self_times(start, end, parent))
    assert by_layer(stats, ("linalg",))["linalg"] == (3, pytest.approx(6.0))


def test_kernel_n3_counts_batches():
    assert kernel_n3(np.zeros((81, 81))) == 81**3
    assert kernel_n3(np.zeros((64, 81, 81))) == 64 * 81**3
    assert kernel_n3(np.zeros((4, 9))) == 4 * 9 * 4


def test_wrappers_reach_every_binding_and_uninstall_restores():
    originals = (cli.eig_hermitian, entcap.eig_hermitian, negacap.eig_hermitian,
                 families.FAMILIES["rot33"][0], np.linalg.eigh, cli.main)
    t = Tracer()
    t.install()
    try:
        assert t.unwrapped() == []
        wrapped = (cli.eig_hermitian, entcap.eig_hermitian, negacap.eig_hermitian,
                   families.FAMILIES["rot33"][0], np.linalg.eigh, cli.main)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert cli.eig_hermitian is entcap.eig_hermitian is negacap.eig_hermitian
    finally:
        t.uninstall()
    restored = (cli.eig_hermitian, entcap.eig_hermitian, negacap.eig_hermitian,
                families.FAMILIES["rot33"][0], np.linalg.eigh, cli.main)
    assert all(r is o for r, o in zip(restored, originals))


def _traced_records(calls):
    t = Tracer()
    records = []
    t.install()
    try:
        for call in calls:
            root = t.span_count()
            code, out, err, dt = run.invoke(call.argv)
            assert code == 0, err
            records.append(run.Record(call, code, dt, root=root, traced=True))
    finally:
        t.uninstall()
    return t, records


def _call(kind, argv, items, meta):
    from workloads import Call

    return Call(kind, argv, items, meta)


def test_span_counts_match_the_code():
    sweep = _call("rot33", ["channel-sweep", "--family", "rot33", "--alpha", "0.1", "1.0",
                            "2", "--beta", "0.2", "2.0", "2"], 4, {"family": "rot33", "dims": (3, 3)})
    gauss = _call("gauss", ["gaussian-sweep", "--N", "4", "--n1", "1", "--n2", "2",
                            "--gamma", "1", "2", "3", "--r", "0.1", "10", "2"], 6,
                  {"N": 4, "n1": 1, "n2": 2, "nu_d": 0.5})
    t, records = _traced_records([sweep, gauss])
    arr = t.arrays()
    assert run.count_problems(t.names, arr, records) == []
    roots = arr["parent"] < 0
    assert [t.names[i] for i in arr["name_id"][roots]] == ["cli.main", "cli.main"]
    pt = t.names.index("entcap.pt_minus_identity")
    assert int(np.sum(arr["name_id"] == pt)) == 2 * 4
    assert int(np.sum(arr["work"])) == 4 * (3 * 81**3 + 3 * 9**3)


def test_span_count_mismatch_is_reported(monkeypatch):
    sweep = _call("rot23", ["channel-sweep", "--family", "rot23", "--alpha", "0.1", "1.0",
                            "2", "--beta", "0.2", "2.0", "2"], 4, {"family": "rot23", "dims": (2, 3)})
    t, records = _traced_records([sweep])
    monkeypatch.setattr(run, "expected_family_counts",
                        lambda d, points: {"entcap.pt_minus_identity": 3 * points})
    problems = run.count_problems(t.names, t.arrays(), records)
    assert len(problems) == 1 and "entcap.pt_minus_identity" in problems[0]


def test_install_refuses_an_unreachable_original(monkeypatch):
    original = cli.main
    monkeypatch.setattr(families, "HIDDEN", {"nested": [families.rot33_unitary]},
                        raising=False)
    with pytest.raises(RuntimeError, match="HIDDEN"):
        Tracer().install()
    assert cli.main is original  # a refused install leaves nothing bound


def test_traced_rounds_never_repeat_an_untraced_input(tmp_path):
    import workloads

    round0 = workloads.make_round("gaussian-sweep", 6, 0, str(tmp_path))
    records, rounds = run.measure("gaussian-sweep", 6, 0, round0, str(tmp_path), Tracer())
    assert rounds == 2
    traced = [r.call.argv for r in records if r.traced]
    untraced = [r.call.argv for r in records if not r.traced]
    assert len(traced) == len(untraced) == len(round0)
    assert not {tuple(a) for a in traced} & {tuple(a) for a in untraced}
    assert run.failures(records) == {}
