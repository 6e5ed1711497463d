import argparse
import inspect
import json
import math

import numpy as np
import pytest

from negacap import entcap, families
from negacap.cli import build_parser, main
from negacap.io import channel_to_dict, matrix_to_dict
from negacap.channel import unitary_channel
from negacap.linalg import BipartiteDims

from conftest import rand_unitary


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChannelAnalyze:
    def test_cnot_report(self, tmp_path, capsys):
        ch = unitary_channel(families.cnot_unitary(), BipartiteDims(2, 2))
        path = write_json(tmp_path / "cnot.json", channel_to_dict(ch))
        code, out, _ = run(capsys, "channel-analyze", path)
        assert code == 0
        report = json.loads(out)
        assert report["predicates"] == {"cp": True, "hp": True, "tp": True}
        assert report["bounds"]["lower_L"] == pytest.approx(1.0, abs=1e-9)
        assert report["bounds"]["upper_L"] == pytest.approx(1.0, abs=1e-9)
        assert report["perfect_entangler"] is True
        assert report["ppt"] is False

    def test_product_unitary_is_ppt(self, tmp_path, capsys):
        u = np.kron(np.diag([1.0, 1j]), np.eye(2))
        ch = unitary_channel(u, BipartiteDims(2, 2))
        path = write_json(tmp_path / "prod.json", channel_to_dict(ch))
        code, out, _ = run(capsys, "channel-analyze", path)
        report = json.loads(out)
        assert code == 0
        assert report["ppt"] is True
        assert report["bounds"]["upper_L"] <= 1e-8
        assert report["perfect_entangler"] is False

    def test_appendix_c_3x3_family(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "u33.json",
            {"family": "rot33", "alpha": math.pi / 3, "beta": math.pi / 5},
        )
        code, out, _ = run(capsys, "channel-analyze", path)
        report = json.loads(out)
        assert code == 0
        assert 0.0 < report["bounds"]["lower_L"] <= report["bounds"]["upper_L"]

    def test_non_cptp_exit_code(self, tmp_path, capsys):
        payload = {
            "in_dims": [2, 1],
            "out_dims": [2, 1],
            "kraus": [{"c": 1.0, "V": matrix_to_dict(0.5 * np.eye(2))}],
        }
        path = write_json(tmp_path / "sub.json", payload)
        code, out, _ = run(capsys, "channel-analyze", path)
        assert code == 2

    def test_non_cptp_report_keys(self, tmp_path, capsys):
        # HP but not CP: norms and PPT flag are reported, bounds are not
        swap = np.eye(4)[[0, 2, 1, 3]]  # Choi matrix of the transpose map
        payload = {"in_dims": [2, 1], "out_dims": [2, 1], "choi": matrix_to_dict(swap)}
        path = write_json(tmp_path / "transpose.json", payload)
        code, out, _ = run(capsys, "channel-analyze", path)
        report = json.loads(out)
        assert code == 2
        assert list(report) == [
            "in_dims", "out_dims", "predicates", "gamma_norm_1", "ppt", "error"
        ]
        assert report["predicates"] == {"cp": False, "hp": True, "tp": True}

    def test_non_hp_report_keys(self, tmp_path, capsys):
        choi = 0.5 * np.eye(4, dtype=complex)  # completely depolarizing, TP
        choi[0, 3] = 0.1j
        payload = {"in_dims": [2, 1], "out_dims": [2, 1], "choi": matrix_to_dict(choi)}
        path = write_json(tmp_path / "non_hp.json", payload)
        code, out, _ = run(capsys, "channel-analyze", path)
        report = json.loads(out)
        assert code == 2
        assert list(report) == ["in_dims", "out_dims", "predicates", "error"]
        assert report["predicates"] == {"cp": False, "hp": False, "tp": True}

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("oops")
        code, _, err = run(capsys, "channel-analyze", str(path))
        assert code == 3
        assert "parse error" in err


class TestChannelSweep:
    def test_rot22_lower_bound_column(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys,
            "channel-sweep",
            "--family",
            "rot22",
            "--alpha", "0", "1.5", "2",
            "--beta", "0", "3.0", "3",
            "--out",
            str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("alpha,beta,lower_N")
        assert len(lines) == 1 + 2 * 3
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            alpha, beta, lower_n = vals[0], vals[1], vals[2]
            assert lower_n == pytest.approx(
                abs(math.sin(beta - alpha)) / 2.0, abs=1e-9
            )

    def test_csv_reproducible(self, tmp_path, capsys):
        args = [
            "channel-sweep", "--family", "gencnot",
            "--alpha", "0", "1", "2", "--beta", "0", "1", "2",
        ]
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_mix_family_columns(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "channel-sweep", "--family", "mix", "--pair", "rot23",
            "--p", "0.2", "0.8", "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,lower_L,upper_L_joint,upper_L_convex"
        assert len(lines) == 4

    def test_rejects_bad_axis(self, capsys):
        code, _, err = run(
            capsys,
            "channel-sweep", "--family", "rot22",
            "--alpha", "1", "0", "5", "--beta", "0", "1", "2",
        )
        assert code == 2


class TestGaussianCommands:
    def test_sup_report(self, capsys):
        code, out, _ = run(capsys, "gaussian-sup", "3", "1", "1")
        assert code == 0
        report = json.loads(out)
        assert report["supremum"] == pytest.approx(0.5 * math.log2(3.0))

    def test_sup_unbounded(self, capsys):
        code, out, _ = run(capsys, "gaussian-sup", "4", "2", "2")
        assert code == 0
        assert json.loads(out)["supremum"] == "unbounded"

    def test_sup_invalid_blocks(self, capsys):
        code, _, err = run(capsys, "gaussian-sup", "3", "3", "1")
        assert code == 2

    def test_sweep_monotone_to_sup(self, capsys):
        code, out, _ = run(
            capsys,
            "gaussian-sweep", "--N", "4", "--n1", "1", "--n2", "1",
            "--nu-d", "0.5",
            "--gamma", "1.0", "1.0001", "2",
            "--r", "1e-8", "1e8", "5", "--log-r",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "gamma,r,f,E_L"
        rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
        el = [row[3] for row in rows if row[0] == 1.0]
        # extremes of the log-r grid approach the half-bit supremum
        assert el[0] == pytest.approx(0.5, abs=1e-4)
        assert el[-1] == pytest.approx(0.5, abs=1e-4)
        assert min(el) < 0.5


class TestSaturate:
    def test_cnot_with_state(self, tmp_path, capsys):
        ch = unitary_channel(families.cnot_unitary(), BipartiteDims(2, 2))
        ch_path = write_json(tmp_path / "c.json", channel_to_dict(ch))
        psi = np.array([[1.0], [0.0], [1.0], [0.0]]) / math.sqrt(2.0)
        st_path = write_json(tmp_path / "s.json", matrix_to_dict(psi))
        code, out, _ = run(capsys, "saturate", "--channel", ch_path, "--state", st_path)
        assert code == 0
        report = json.loads(out)
        assert report["saturation"]["achieves_upper"] is True

    def test_cnot_with_bad_state(self, tmp_path, capsys):
        ch = unitary_channel(families.cnot_unitary(), BipartiteDims(2, 2))
        ch_path = write_json(tmp_path / "c.json", channel_to_dict(ch))
        psi = np.array([[1.0], [0.0], [0.0], [0.0]])
        st_path = write_json(tmp_path / "s.json", matrix_to_dict(psi))
        code, out, _ = run(capsys, "saturate", "--channel", ch_path, "--state", st_path)
        report = json.loads(out)
        assert report["saturation"]["achieves_upper"] is False

    def test_one_by_one_density_matrix_is_not_a_ket(self, tmp_path, capsys):
        ch = unitary_channel(np.eye(1), BipartiteDims(1, 1))
        ch_path = write_json(tmp_path / "c.json", channel_to_dict(ch))
        st_path = write_json(tmp_path / "s.json", matrix_to_dict(np.array([[0.5]])))
        code, out, err = run(capsys, "saturate", "--channel", ch_path, "--state", st_path)
        assert code == 2
        assert out == ""
        # NotDensityOperator: the matrix is not renormalized as a ket would be
        assert err.startswith("error: trace 0.5")

    def test_family_without_state(self, tmp_path, capsys):
        path = write_json(
            tmp_path / "fam.json", {"family": "rot22", "alpha": 0.2, "beta": 0.9}
        )
        code, out, _ = run(capsys, "saturate", "--channel", path)
        assert code == 0
        report = json.loads(out)
        assert report["saturation"]["prop_identity"] is True
        assert "theta1 = pi/4" in report["known_optimal_states"]


class TestSoundness:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, "soundness", "--trials", "25", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["upper_bound_violated"] is False
        assert report["gaussian_sup_violations"] == 0

    def test_seeded_reproducibility(self, capsys):
        _, out1, _ = run(capsys, "soundness", "--trials", "10", "--seed", "7")
        _, out2, _ = run(capsys, "soundness", "--trials", "10", "--seed", "7")
        assert out1 == out2


class TestThreading:
    def test_parallel_sweep_identical(self, tmp_path, capsys, monkeypatch):
        args = [
            "channel-sweep", "--family", "rot22",
            "--alpha", "0", "1", "3", "--beta", "0", "1", "3",
        ]
        _, serial, _ = run(capsys, *args)
        monkeypatch.setenv("NEGACAP_THREADS", "4")
        _, parallel, _ = run(capsys, *args)
        assert serial == parallel


def count_lapack(monkeypatch):
    """Record (name, side, dtype) of every LAPACK decomposition numpy runs."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, a.shape[-1], a.dtype))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


class TestKernelCounts:
    """LAPACK work per rot33 sweep point, as the benchmark's traced run counts it."""

    def test_rot33_point(self, capsys, monkeypatch, rng):
        calls = count_lapack(monkeypatch)
        pt_calls = []
        original_pt = entcap.pt_minus_identity

        def counted_pt(*args, **kwargs):
            pt_calls.append(args)
            return original_pt(*args, **kwargs)

        monkeypatch.setattr(entcap, "pt_minus_identity", counted_pt)
        a0, b0 = (float(x) for x in rng.uniform(0.1, 3.0, size=2))
        code, _, _ = run(
            capsys, "channel-sweep", "--family", "rot33",
            "--alpha", str(a0), str(a0 + 0.1), "2",
            "--beta", str(b0), str(b0 + 0.1), "2",
        )
        assert code == 0
        points = 4
        assert len(calls) == 6 * points
        assert sum(n**3 for _, n, _ in calls) == points * (3 * 81**3 + 3 * 9**3)
        assert len(pt_calls) == 2 * points
        assert all(dtype == np.float64 for _, n, dtype in calls if n == 81)

    def test_analyze_unitary_4x4(self, tmp_path, capsys, monkeypatch, rng):
        # one Choi eigvalsh and one PT-Choi eigh at side 256, the two norms of M at 16
        ch = unitary_channel(rand_unitary(rng, 16), BipartiteDims(4, 4))
        path = write_json(tmp_path / "u44.json", channel_to_dict(ch))
        calls = count_lapack(monkeypatch)
        code, _, _ = run(capsys, "channel-analyze", path)
        assert code == 0
        assert sorted((name, n) for name, n, _ in calls) == [
            ("eigh", 256), ("eigvalsh", 256), ("svd", 16), ("svd", 16)
        ]

    def test_mix_points(self, capsys, monkeypatch):
        # the pair's witnesses once, then one analysis of each mixture
        calls = count_lapack(monkeypatch)
        points = 3
        code, _, _ = run(
            capsys, "channel-sweep", "--family", "mix", "--pair", "rot33",
            "--p", "0.2", "0.8", str(points),
        )
        assert code == 0
        assert sum(n == 81 for _, n, _ in calls) == 2 * points + 2


#: (command argv, shared flag its handler does not read)
UNREAD_FLAGS = [
    (["channel-analyze", "ch.json"], "--hbar"),
    (["channel-sweep", "--family", "rot22"], "--hbar"),
    (["saturate", "--channel", "ch.json"], "--hbar"),
    (["soundness", "--trials", "1"], "--hbar"),
    (["channel-sweep", "--family", "rot22"], "--tol"),
    (["gaussian-sup", "3", "1", "1"], "--tol"),
    (["gaussian-sweep", "--N", "3", "--n1", "1", "--n2", "1"], "--tol"),
    (["saturate", "--channel", "ch.json"], "--base"),
]


class TestParser:
    @pytest.mark.parametrize("argv, flag", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_every_flag_is_read_by_its_handler(self):
        sub = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        for command, parser in sub.choices.items():
            source = inspect.getsource(parser.get_default("fn"))
            for action in parser._actions:
                if action.dest in ("help", "out", "format"):
                    continue
                assert f"args.{action.dest}" in source, (command, action.dest)


class TestFormatFlag:
    def test_report_as_csv(self, capsys):
        code, out, _ = run(capsys, "gaussian-sup", "3", "1", "1", "--format", "csv")
        assert code == 0
        header, row = out.splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        assert float(values["supremum"]) == pytest.approx(0.5 * math.log2(3.0))

    def test_table_as_json(self, capsys):
        code, out, _ = run(
            capsys,
            "channel-sweep", "--family", "rot22",
            "--alpha", "0", "1", "2", "--beta", "0", "1", "2",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 4
        assert set(rows[0]) >= {"alpha", "beta", "lower_L", "upper_L"}


class TestLogBases:
    def test_natural_base_sup(self, capsys):
        code, out, _ = run(capsys, "gaussian-sup", "3", "1", "1", "--base", "e")
        assert code == 0
        assert json.loads(out)["supremum"] == pytest.approx(0.5 * math.log(3.0))

    def test_base_ten_analyze(self, tmp_path, capsys):
        ch = unitary_channel(families.cnot_unitary(), BipartiteDims(2, 2))
        path = write_json(tmp_path / "cnot.json", channel_to_dict(ch))
        code, out, _ = run(capsys, "channel-analyze", path, "--base", "10")
        report = json.loads(out)
        assert report["bounds"]["upper_L"] == pytest.approx(math.log10(2.0), abs=1e-9)
        assert report["perfect_entangler"] is True
