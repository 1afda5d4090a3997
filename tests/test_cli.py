import json

import numpy as np
import pytest

from bpg import L1, qip_value
from bpg.cli import main
from bpg.instances import (
    generate_instance,
    instance_to_payload,
    load_instance,
    payload_to_instance,
    save_instance,
)


def exit_code(argv):
    """main's exit code, including argparse's SystemExit on an unparsable flag."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestGenerate:
    def test_noiseless_ground_truth_fits_exactly(self):
        _, inst, x_true = generate_instance(d=6, m=10, s_true=2, noise=0.0, seed=3)
        assert qip_value(inst, x_true) <= 1e-20

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            payload, _, _ = generate_instance(d=5, m=7, s_true=2, noise=0.1, seed=42,
                                              kind="dense-symmetric")
            save_instance(payload, path)
        assert a.read_bytes() == b.read_bytes()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_instance(d=1, m=3, s_true=1, noise=0.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance(d=4, m=3, s_true=4, noise=0.0, seed=0)
        with pytest.raises(ValueError):
            generate_instance(d=4, m=3, s_true=1, noise=-0.5, seed=0)
        with pytest.raises(ValueError):
            generate_instance(d=4, m=3, s_true=1, noise=float("nan"), seed=0)

    def test_cli_generate(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["generate", "--d", "5", "--m", "8", "--s-true", "2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        inst, x_true = load_instance(out)
        assert inst.d == 5 and inst.m == 8
        assert np.count_nonzero(x_true) == 2

    @pytest.mark.parametrize("args, out", [
        (["--reg", "l1", "--theta", "-1"], "inst.json"),
        (["--theta", "0.5"], "inst.json"),
        (["--noise", "nan"], "inst.json"),
        ([], "missing/inst.json"),
    ], ids=["negative-theta", "theta-without-l1", "noise-nan", "missing-directory"])
    def test_bad_input_writes_nothing(self, tmp_path, capsys, args, out):
        code = main(["generate", "--d", "5", "--m", "8", "--s-true", "2", *args,
                     "--out", str(tmp_path / out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRoundTrip:
    def test_dense_bit_exact(self, tmp_path):
        payload, inst, x_true = generate_instance(d=5, m=6, s_true=2, noise=0.3,
                                                  seed=9, kind="dense-symmetric")
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        loaded, x_loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.matrices, inst.matrices)
        np.testing.assert_array_equal(loaded.b, inst.b)
        np.testing.assert_array_equal(x_loaded, x_true)

    def test_rank_one_bit_exact(self, tmp_path):
        payload, inst, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=10)
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        loaded, _ = load_instance(path)
        np.testing.assert_array_equal(loaded.factors, inst.factors)
        np.testing.assert_array_equal(loaded.b, inst.b)

    def test_dense_golden_lower_triangle(self):
        # row-major lower triangle: a00, a10, a11, a20, a21, a22
        tri = ["0x1.0000000000000p+0", "-0x1.0000000000000p-1", "0x1.0000000000000p+1",
               "0x1.999999999999ap-4", "0x1.8000000000000p+1", "-0x1.8000000000000p+0"]
        payload = {
            "schema": 1, "d": 3, "m": 1, "encoding": "dense-symmetric",
            "b": ["0x1.0000000000000p+0"], "regularizer": {"kind": "l0", "s": 1},
            "x_true": None, "matrices": [tri],
        }
        inst, _ = payload_to_instance(payload)
        expected = np.array([[1.0, -0.5, 0.1],
                             [-0.5, 2.0, 3.0],
                             [0.1, 3.0, -1.5]])
        np.testing.assert_array_equal(inst.matrices[0], expected)
        assert instance_to_payload(inst)["matrices"] == [tri]

    def test_l1_regularizer_round_trip(self):
        _, inst, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=11,
                                       regularizer=L1(theta=0.37))
        payload = instance_to_payload(inst)
        loaded, _ = payload_to_instance(payload)
        assert isinstance(loaded.regularizer, L1)
        assert loaded.regularizer.theta == 0.37


class TestValidation:
    def test_bad_schema_version(self, tmp_path):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        payload["schema"] = 99
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        with pytest.raises(ValueError, match="schema"):
            load_instance(path)

    def test_sparsity_too_large_rejected(self, tmp_path):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        payload["regularizer"] = {"kind": "l0", "s": 4}
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        with pytest.raises(ValueError, match="1 <= s < d"):
            load_instance(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        payload["b"] = payload["b"][:-1]
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        with pytest.raises(ValueError, match="'b'"):
            load_instance(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda p: [p], "JSON object"),
        (lambda p: {**p, "regularizer": {"kind": "l1"}}, "regularizer.theta"),
        (lambda p: {**p, "regularizer": {"kind": "l1", "theta": 0.1}}, "regularizer.theta"),
        (lambda p: {**p, "regularizer": {"kind": "l0"}}, "regularizer.s"),
        (lambda p: {**p, "d": None}, "'d'"),
        (lambda p: {**p, "factors": 3}, "'factors'"),
        (lambda p: {**p, "b": "1234"}, "'b'"),
        (lambda p: {**p, "x_true": "abcd"}, "'x_true'"),
    ], ids=["not-an-object", "theta-missing", "theta-not-a-string", "s-missing", "d-null",
            "factors-not-a-list", "b-a-string", "x-true-a-string"])
    def test_payload_shape_rejected(self, tmp_path, capsys, edit, field):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        path = tmp_path / "bad.json"
        save_instance(edit(payload), path)
        with pytest.raises(ValueError, match=field):
            load_instance(path)
        assert main(["check", "--instance", str(path)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind, field", [
        ("rank-one", "b"), ("dense-symmetric", "b"),
        ("rank-one", "factors"), ("dense-symmetric", "matrices"),
    ])
    def test_non_finite_data_rejected(self, tmp_path, capsys, kind, field):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0, kind=kind)
        if field == "b":
            payload["b"][1] = "nan"
        else:
            payload[field][-1][0] = "nan"
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        assert main(["check", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: {field} must be finite" in err
        assert "only zero measurement matrices" not in err

    @pytest.mark.parametrize("kind, field, n", [
        ("rank-one", "factors", 4), ("dense-symmetric", "matrices", 10),
    ])
    @pytest.mark.parametrize("edit", [
        lambda row, n: row[:-1],
        lambda row, n: row + row[:1],
        lambda row, n: ",".join(row),
        lambda row, n: None,
        lambda row, n: row[:n - 2] + ["0x1.zzp+0"] + row[n - 1:],
    ], ids=["short-row", "long-row", "row-a-string", "row-null", "non-hex-in-last-row"])
    def test_bad_rows_name_the_field(self, kind, field, n, edit):
        payload, _, _ = generate_instance(d=4, m=5, s_true=1, noise=0.0, seed=0, kind=kind)
        assert len(payload[field][-1]) == n
        payload[field][-1] = edit(payload[field][-1], n)
        with pytest.raises(ValueError, match=f"'{field}'"):
            payload_to_instance(payload)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n "d": }\n')
        with pytest.raises(ValueError, match="line 2"):
            load_instance(path)


class TestSolve:
    @pytest.fixture()
    def instance_path(self, tmp_path):
        payload, _, _ = generate_instance(d=5, m=10, s_true=2, noise=0.0, seed=21)
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        return path

    def test_zero_iterations_boundary(self, instance_path, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--instance", str(instance_path), "--max-iters", "0",
                     "--out", str(out)])
        assert code == 0

        # no step, no witness: null, not the NaN that strict parsers reject
        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for name in ("summary_000.json", "best.json"):
            report = json.loads((out / name).read_text(), parse_constant=reject)
            assert report["iterations"] == 0
            assert report["final_witness_norm"] is None

    def test_invalid_step_rejected(self, instance_path, tmp_path, capsys):
        inst, _ = load_instance(instance_path)
        from bpg import Kernel, make_problem

        L = make_problem(inst, Kernel.quartic(inst.d)).smad.L
        code = main(["solve", "--instance", str(instance_path),
                     "--lambda", str(1.01 / L), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "lam*L" in capsys.readouterr().err

    def test_full_l1_pipeline(self, instance_path, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--instance", str(instance_path), "--reg", "l1",
                     "--theta", "0.1", "--max-iters", "3000", "--starts", "2",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        for i in range(2):
            assert (out / f"trace_{i:03d}.csv").exists()
            assert (out / f"summary_{i:03d}.json").exists()
        best = json.loads((out / "best.json").read_text())
        assert best["final_psi"] >= 0
        # trace invariants: nonincreasing objective column
        rows = (out / "trace_000.csv").read_text().strip().splitlines()
        psi = np.array([float(r.split(",")[1]) for r in rows[1:]])
        assert np.all(np.diff(psi) <= 1e-8 * (1.0 + np.abs(psi[:-1])))

    def test_reproducible_artifacts(self, instance_path, tmp_path):
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            code = main(["solve", "--instance", str(instance_path), "--max-iters", "500",
                         "--starts", "3", "--seed", "11", "--out", str(out)])
            assert code == 0
            outs.append(out)
        for i in range(3):
            a = (outs[0] / f"trace_{i:03d}.csv").read_bytes()
            b = (outs[1] / f"trace_{i:03d}.csv").read_bytes()
            assert a == b

    def test_missing_instance(self, tmp_path, capsys):
        code = main(["solve", "--instance", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_zero_starts_rejected(self, instance_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["solve", "--instance", str(instance_path), "--starts", "0",
                     "--out", str(out)])
        assert code == 2
        assert "error: --starts" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--max-iters", "-1"],
        ["--tol-step", "-0.5"],
        ["--tol-step", "nan"],
        ["--tol-residual", "nan"],
        ["--tol-residual", "-1"],
        ["--theta", "0.5"],
        ["--reg", "l1", "--theta", "0.1", "--s", "2"],
        ["--reg", "l0"],
        ["--lambda", "big"],
    ], ids=["max-iters", "tol-step", "tol-step-nan", "tol-residual-nan", "tol-residual",
            "theta-without-reg", "s-with-l1", "l0-without-s", "lambda-text"])
    def test_bad_run_parameters_leave_no_output(self, instance_path, tmp_path, capsys, args):
        out = tmp_path / "run"
        code = exit_code(["solve", "--instance", str(instance_path), *args, "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_check_passes_on_valid_instance(self, tmp_path, capsys):
        payload, _, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=31)
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        code = main(["check", "--instance", str(path), "--samples", "2000"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--radius", "nan"],
        ["--radius", "0"],
        ["--radius", "inf"],
    ], ids=["samples-0", "samples-negative", "radius-nan", "radius-0", "radius-inf"])
    def test_bad_sampling_rejected(self, tmp_path, capsys, args):
        payload, _, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=31)
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        code = main(["check", "--instance", str(path), *args])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: {args[0]}" in captured.err
        assert "PASS" not in captured.out

    def test_missing_instance(self, tmp_path, capsys):
        code = main(["check", "--instance", str(tmp_path / "nope.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err
