import base64
import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import overflowing_instance, random_dense_instance
from oracles import dense_stack

from bpg import (BpgConfig, DecreaseViolationError, DivergenceError, Kernel, L1, QipInstance,
                 make_problem, qip_value, run_bpg)
from bpg import cli
from bpg.cli import draw_starts, main
from bpg.instances import (
    generate_instance,
    instance_to_payload,
    load_instance,
    payload_to_instance,
    save_instance,
)


def b64(values):
    """Base64 of little-endian float64 bytes, written without the package's codec."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode()


def unb64(text):
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


def reject(constant):
    """``parse_constant`` for ``json.loads``: NaN and Infinity are not strict JSON."""
    raise ValueError(f"non-standard JSON constant {constant}")


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
        with pytest.raises(ValueError, match="unknown measurement kind 'diagonal'"):
            generate_instance(d=4, m=3, s_true=1, noise=0.0, seed=0, kind="diagonal")

    def test_cli_generate(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(["generate", "--d", "5", "--m", "8", "--s-true", "2",
                     "--seed", "7", "--out", str(out)])
        assert code == 0
        inst, x_true = load_instance(out)
        assert inst.d == 5 and inst.m == 8
        assert np.count_nonzero(x_true) == 2

    @pytest.mark.parametrize("args, out, message", [
        (["--reg", "l1", "--theta", "-1"], "inst.json", "l1 weight must be positive"),
        (["--theta", "0.5"], "inst.json", "--theta needs --reg l1"),
        (["--reg", "l1"], "inst.json", "--reg l1 requires --theta"),
        (["--noise", "nan"], "inst.json", "noise level must be nonnegative"),
        ([], "missing/inst.json", "No such file or directory"),
    ], ids=["negative-theta", "theta-without-l1", "l1-without-theta", "noise-nan",
            "missing-directory"])
    def test_bad_input_writes_nothing(self, tmp_path, capsys, args, out, message):
        code = main(["generate", "--d", "5", "--m", "8", "--s-true", "2", *args,
                     "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert list(tmp_path.iterdir()) == []


class TestRoundTrip:
    def test_dense_bit_exact(self, tmp_path):
        payload, inst, x_true = generate_instance(d=5, m=6, s_true=2, noise=0.3,
                                                  seed=9, kind="dense-symmetric")
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        loaded, x_loaded = load_instance(path)
        np.testing.assert_array_equal(loaded.lower, inst.lower)
        np.testing.assert_array_equal(loaded.b, inst.b)
        np.testing.assert_array_equal(x_loaded, x_true)

    def test_dense_packed_rows_bit_exact(self, tmp_path):
        payload, inst, _ = generate_instance(d=7, m=5, s_true=2, noise=0.1, seed=12,
                                             kind="dense-symmetric")
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        loaded, _ = load_instance(path)
        rows = unb64(payload["matrices"]).reshape(5, 28)
        assert loaded.lower.tobytes() == rows.tobytes() == inst.lower.tobytes()
        # the instance's own read-only float64 copies, not views of the
        # decoded bytes
        for a in (loaded.lower, loaded.b):
            assert a.dtype == np.float64 and not a.flags.writeable
            assert a.flags.owndata
        assert instance_to_payload(loaded)["matrices"] == payload["matrices"]

    def test_rank_one_bit_exact(self, tmp_path):
        payload, inst, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=10)
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        loaded, _ = load_instance(path)
        np.testing.assert_array_equal(loaded.factors, inst.factors)
        np.testing.assert_array_equal(loaded.b, inst.b)

    def test_dense_golden_lower_triangle(self):
        # the row-major lower triangle a00, a10, a11, a20, a21, a22 =
        # 1, -0.5, 2, 0.1, 3, -1.5 as little-endian float64 bytes
        tri = "AAAAAAAA8D8AAAAAAADgvwAAAAAAAABAmpmZmZmZuT8AAAAAAAAIQAAAAAAAAPi/"
        payload = {
            "schema": 2, "d": 3, "m": 1, "encoding": "dense-symmetric",
            "b": "AAAAAAAA8D8=", "regularizer": {"kind": "l0", "s": 1},
            "x_true": None, "matrices": tri,
        }
        inst, _ = payload_to_instance(payload)
        expected = np.array([[1.0, -0.5, 0.1],
                             [-0.5, 2.0, 3.0],
                             [0.1, 3.0, -1.5]])
        np.testing.assert_array_equal(dense_stack(inst)[0], expected)
        assert instance_to_payload(inst)["matrices"] == tri

    def test_l1_regularizer_round_trip(self):
        _, inst, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=11,
                                       regularizer=L1(theta=0.37))
        payload = instance_to_payload(inst)
        loaded, _ = payload_to_instance(payload)
        assert isinstance(loaded.regularizer, L1)
        assert loaded.regularizer.theta == 0.37


class TestValidation:
    def test_bad_schema_version(self, tmp_path, capsys):
        payload, inst, x_true = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        # a schema-1 file: one hexadecimal float string per value
        schema_1 = {**payload, "schema": 1,
                    "b": [v.hex() for v in inst.b.tolist()],
                    "factors": [[v.hex() for v in row] for row in inst.factors.tolist()],
                    "x_true": [v.hex() for v in x_true.tolist()]}
        path, out = tmp_path / "bad.json", tmp_path / "run"
        for bad in ({**payload, "schema": 99}, schema_1):
            save_instance(bad, path)
            with pytest.raises(ValueError, match="schema"):
                load_instance(path)
            for argv in (["check", "--instance", str(path)],
                         ["solve", "--instance", str(path), "--out", str(out)]):
                assert main(argv) == 2
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and err[0].startswith(f"error: {path}: field 'schema'")
                assert "bpg generate" in err[0]
            assert sorted(tmp_path.iterdir()) == [path]

    def test_sparsity_too_large_rejected(self, tmp_path):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        payload["regularizer"] = {"kind": "l0", "s": 4}
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        with pytest.raises(ValueError, match="1 <= s < d"):
            load_instance(path)

    def test_dimension_mismatch_rejected(self, tmp_path):
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        payload["b"] = b64(unb64(payload["b"])[:-1])
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        with pytest.raises(ValueError, match="'b'"):
            load_instance(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda p: [p], "JSON object"),
        (lambda p: {k: v for k, v in p.items() if k != "b"}, "missing required field 'b'"),
        (lambda p: {**p, "encoding": "sparse"}, "field 'encoding': unknown encoding 'sparse'"),
        (lambda p: {**p, "regularizer": "l0"},
         "field 'regularizer': expected an object with a 'kind'"),
        (lambda p: {**p, "regularizer": {"kind": "l2"}},
         "field 'regularizer.kind': unknown kind 'l2'"),
        (lambda p: {**p, "regularizer": {"kind": "l1"}}, "regularizer.theta"),
        (lambda p: {**p, "regularizer": {"kind": "l1", "theta": 0.1}}, "regularizer.theta"),
        (lambda p: {**p, "regularizer": {"kind": "l0"}}, "regularizer.s"),
        (lambda p: {**p, "d": None}, "'d'"),
        (lambda p: {**p, "factors": 3}, "'factors': expected a base64 string, got int"),
        # "1234" and "abcd" are valid base64 for 3 bytes, not 4 float64 values
        (lambda p: {**p, "b": "1234"}, r"'b': expected 32 bytes \(4 float64 values\), got 3$"),
        (lambda p: {**p, "x_true": "abcd"},
         r"'x_true': expected 32 bytes \(4 float64 values\), got 3$"),
    ], ids=["not-an-object", "b-missing", "unknown-encoding", "regularizer-not-an-object",
            "unknown-regularizer", "theta-missing", "theta-not-a-string", "s-missing", "d-null",
            "factors-not-a-string", "b-three-bytes", "x-true-three-bytes"])
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
        values = unb64(payload[field]).copy()
        values[-1] = np.nan
        payload[field] = b64(values)
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
        lambda text, n: b64(unb64(text)[:-1]),
        lambda text, n: b64(np.append(unb64(text), 1.0)),
        lambda text, n: [b64(row) for row in unb64(text).reshape(-1, n)],
        lambda text, n: None,
        lambda text, n: text[:-6] + "." + text[-5:],
        lambda text, n: text + "\n",
        lambda text, n: text.rstrip("="),
    ], ids=["short-row", "long-row", "row-a-string", "row-null", "non-hex-in-last-row",
            "stray-newline", "no-padding"])
    def test_bad_rows_name_the_field(self, kind, field, n, edit):
        # all m rows are one base64 string of m * n float64 values
        payload, _, _ = generate_instance(d=4, m=5, s_true=1, noise=0.0, seed=0, kind=kind)
        assert unb64(payload[field]).size == 5 * n
        payload[field] = edit(payload[field], n)
        with pytest.raises(ValueError, match=f"'{field}'"):
            payload_to_instance(payload)

    @pytest.mark.parametrize("content, message", [
        # past the parser's recursion limit
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        # a Latin-1 e-acute
        (b'{"schema": 2, "d": "caf\xe9"}\n', "'utf-8' codec can't decode byte 0xe9"),
    ], ids=["nested-too-deep", "not-utf-8"])
    def test_unreadable_file_is_one_error_line(self, tmp_path, capsys, content, message):
        path, out = tmp_path / "bad.json", tmp_path / "run"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=message):
            load_instance(path)
        for argv in (["check", "--instance", str(path)],
                     ["solve", "--instance", str(path), "--out", str(out)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and message in err[0]
            assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [path]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 1,\n "d": }\n')
        with pytest.raises(ValueError, match="line 2"):
            load_instance(path)


@pytest.fixture()
def instance_path(tmp_path):
    payload, _, _ = generate_instance(d=5, m=10, s_true=2, noise=0.0, seed=21)
    path = tmp_path / "inst.json"
    save_instance(payload, path)
    return path


class TestSolve:
    def test_zero_iterations_boundary(self, instance_path, tmp_path):
        out = tmp_path / "run"
        code = main(["solve", "--instance", str(instance_path), "--max-iters", "0",
                     "--out", str(out)])
        assert code == 0

        # no step, no witness: null, not the NaN that strict parsers reject
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

    def test_trace_csv_is_the_deterministic_columns(self, instance_path, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", "--instance", str(instance_path), "--max-iters", "50",
                     "--seed", "2", "--out", str(out)]) == 0
        inst, _ = load_instance(instance_path)
        problem = make_problem(inst, Kernel.quartic(inst.d))
        (x0,) = draw_starts(inst.d, 1, 2, inst.regularizer)
        trace = run_bpg(problem, BpgConfig(x0=x0, max_iters=50)).trace
        header, *rows = (out / "trace_000.csv").read_text().splitlines()
        assert header == "k,psi,dh_gap,step_norm,witness_norm"
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        for column, name in zip(table.T, header.split(",")):
            np.testing.assert_array_equal(column, trace.column(name))

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

    def test_dense_generate_and_solve_reproducible(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(["generate", "--d", "6", "--m", "12", "--s-true", "2", "--seed", "8",
                         "--kind", "dense-symmetric", "--reg", "l1", "--theta", "0.1",
                         "--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        outs = [tmp_path / "r1", tmp_path / "r2"]
        for out in outs:
            assert main(["solve", "--instance", str(paths[0]), "--max-iters", "300",
                         "--starts", "3", "--seed", "4", "--out", str(out)]) == 0
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert {"best.json", "trace_002.csv", "summary_002.json"} <= set(names)
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_non_empty_out_refused(self, instance_path, tmp_path, capsys):
        # a rerun with fewer starts would leave the first run's later starts
        # (and, if every start failed, its best.json) next to the new files
        out = tmp_path / "run"
        argv = ["solve", "--instance", str(instance_path), "--max-iters", "50", "--out", str(out)]
        assert main([*argv, "--starts", "4"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert main([*argv, "--starts", "2"]) == 2
        assert f"error: --out directory {out} is not empty" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_empty_out_accepted(self, instance_path, tmp_path):
        out = tmp_path / "run"
        out.mkdir()
        assert main(["solve", "--instance", str(instance_path), "--max-iters", "50",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "best.json", "summary_000.json", "trace_000.csv"]

    def test_starts_run_in_order_in_the_calling_thread(self, instance_path, tmp_path,
                                                       capsys, monkeypatch):
        # each start runs in the caller's thread once the previous start's
        # files are on disk, and its line is printed in start order
        out = tmp_path / "run"
        inst, _ = load_instance(instance_path)
        x0s = [x0.tobytes() for x0 in draw_starts(inst.d, 3, 0, inst.regularizer)]
        calls = []
        real = cli.run_bpg

        def run_bpg(problem, config):
            i = x0s.index(config.x0.tobytes())
            previous = [out / f"summary_{i - 1:03d}.json", out / f"trace_{i - 1:03d}.csv"]
            calls.append((i, threading.get_ident(), i == 0 or all(p.exists() for p in previous)))
            return real(problem, config)

        monkeypatch.setattr(cli, "run_bpg", run_bpg)
        assert main(["solve", "--instance", str(instance_path), "--starts", "3",
                     "--max-iters", "50", "--out", str(out)]) == 0
        assert calls == [(i, threading.get_ident(), True) for i in range(3)]
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == ["start 0", "start 1", "start 2", "best"]

    def test_norms_past_the_float64_square_stay_finite(self, tmp_path):
        # entries of about 1e150 certify a finite L* = 1.1e303; the witness
        # norms, a small ||p+ - p|| over lam = 9e-304, are about 5e298
        path = tmp_path / "inst.json"
        inst = random_dense_instance(np.random.default_rng(5), 16, 32, scale=1e150)
        save_instance(instance_to_payload(inst), path)
        out = tmp_path / "run"
        assert main(["solve", "--instance", str(path), "--max-iters", "20",
                     "--out", str(out)]) == 0
        for name in ("summary_000.json", "best.json"):
            report = json.loads((out / name).read_text(), parse_constant=reject)
            assert 0 < report["final_witness_norm"] < math.inf

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


class TestExitCodes:
    """Exit 3 when a start hits a solver diagnostic, 4 when the audit fails."""

    @staticmethod
    def fail_starts(monkeypatch, instance_path, failing, error=DivergenceError):
        """Make ``run_bpg`` raise ``error`` on the starts numbered in ``failing``
        of a two-start solve at the default ``--seed 0``.

        A start is known by its x0, so the check does not rely on the order
        in which the starts run.
        """
        inst, _ = load_instance(instance_path)
        x0s = draw_starts(inst.d, 2, 0, inst.regularizer)
        bad = {x0s[i].tobytes() for i in failing}
        real = cli.run_bpg

        def run_bpg(problem, config):
            if config.x0.tobytes() in bad:
                raise error("injected failure")
            return real(problem, config)

        monkeypatch.setattr(cli, "run_bpg", run_bpg)

    @pytest.mark.parametrize("error", [DivergenceError, DecreaseViolationError])
    def test_one_failed_start(self, instance_path, tmp_path, capsys, monkeypatch, error):
        self.fail_starts(monkeypatch, instance_path, [0], error)
        out = tmp_path / "run"
        code = main(["solve", "--instance", str(instance_path), "--starts", "2",
                     "--max-iters", "200", "--out", str(out)])
        assert code == 3
        stdout = capsys.readouterr().out
        assert "start 0: FAIL" in stdout and "best: start 1" in stdout
        summary = json.loads((out / "summary_000.json").read_text())
        assert summary == {"start": 0, "error": error.__name__, "message": "injected failure"}
        assert not (out / "trace_000.csv").exists()
        assert (out / "trace_001.csv").exists()
        best = json.loads((out / "best.json").read_text())
        assert best["best_start"] == 1
        survivor = json.loads((out / "summary_001.json").read_text())
        assert {k: best[k] for k in survivor if k != "start"} == {
            k: v for k, v in survivor.items() if k != "start"}

    def test_every_start_failed(self, instance_path, tmp_path, capsys, monkeypatch):
        self.fail_starts(monkeypatch, instance_path, [0, 1])
        out = tmp_path / "run"
        code = main(["solve", "--instance", str(instance_path), "--starts", "2",
                     "--max-iters", "200", "--out", str(out)])
        assert code == 3
        stdout = capsys.readouterr().out
        assert "start 0: FAIL" in stdout and "start 1: FAIL" in stdout
        assert "best:" not in stdout
        assert sorted(p.name for p in out.iterdir()) == ["summary_000.json", "summary_001.json"]

    def test_shrunk_certificate_fails_the_audit(self, tmp_path, capsys, monkeypatch):
        payload, _, _ = generate_instance(d=16, m=48, s_true=3, noise=0.0, seed=1,
                                          kind="dense-symmetric")
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        real = QipInstance.smad_certificate
        monkeypatch.setattr(QipInstance, "smad_certificate",
                            lambda self: replace(real(self), L=real(self).L / 1000))
        code = main(["check", "--instance", str(path), "--samples", "2000"])
        assert code == 4
        stdout = capsys.readouterr().out
        assert stdout.startswith("FAIL: ") and "violations=2000," in stdout

    @pytest.mark.parametrize("case", ["huge-data", "overflowing-start", "overflowing-check",
                                      "overflowing-noise"])
    def test_same_outcome_whatever_the_warning_filter(self, tmp_path, case):
        # each case runs in a fresh interpreter, once with no warning filter and
        # once with RuntimeWarning an error: the program sets numpy's
        # floating-point state itself, so both runs exit alike, print the same
        # lines, write the same strict-JSON files and print no warning
        instance, args, code, err = {
            # entries 1e150 certify a finite L* = 1.1e303; 20 iterations exit 0
            "huge-data": ((16, 32, 1e150), ["solve", "--max-iters", "20"], 0, ""),
            # entries 1e152: g overflows at start 2, which fails; exit 3
            "overflowing-start": ((16, 32, 1e152), ["solve", "--starts", "3", "--max-iters", "20"],
                                  3, ""),
            # pairs at radius 1e80: the margins overflow to NaN, and the audit fails; exit 4
            "overflowing-check": ((8, 16, 1.0), ["check", "--radius", "1e80"], 4, ""),
            # 1e308 times a normal draw past 1.8 leaves float64; exit 2 and one line
            "overflowing-noise": (None, ["generate", "--d", "4", "--m", "2000", "--s-true", "1",
                                         "--noise", "1e308", "--seed", "1"], 2,
                                  "error: noise level 1e+308 overflows float64 in the measurements b\n"),
        }[case]
        if instance is not None:
            path = tmp_path / "inst.json"
            inst = random_dense_instance(np.random.default_rng(5), *instance[:2], scale=instance[2])
            save_instance(instance_to_payload(inst), path)
            args = [*args, "--instance", str(path)]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        runs = []
        for flags in ([], ["-W", "error::RuntimeWarning"]):
            out = tmp_path / f"run{len(runs)}"
            argv = [*args, *(["--out", str(out)] if args[0] != "check" else [])]
            proc = subprocess.run([sys.executable, *flags, "-m", "bpg.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stderr) == (code, err)
            if args[0] == "generate":
                assert not out.exists()
            files = {p.name: p.read_text() for p in sorted(out.glob("*"))}
            for name, text in files.items():
                if name.endswith(".json"):
                    json.loads(text, parse_constant=reject)
            runs.append((proc.stdout, files))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("verb", [["check"], ["solve", "--out", "run"]], ids=["check", "solve"])
    @pytest.mark.parametrize("kind", ["dense", "rank-one"])
    def test_overflowing_certificate_names_the_cause(self, tmp_path, capsys, monkeypatch,
                                                     kind, verb):
        path = tmp_path / "inst.json"
        save_instance(instance_to_payload(overflowing_instance(kind)), path)
        monkeypatch.chdir(tmp_path)
        code = main([verb[0], "--instance", str(path), *verb[1:]])
        assert code == 2
        assert "overflow float64 in the certificate" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()
