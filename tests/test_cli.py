import base64
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
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
    save_instance,
)


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
        # a count is an integer and a noise level a number, never a bool, a float count or a string
        number = "noise level must be a real number in the float64 range, got "
        for bad, message in [({"d": 4.0}, "d must be an integer >= 2, got 4.0"),
                             ({"m": 3.0}, "m must be an integer >= 1, got 3.0"),
                             ({"s_true": True}, "s_true must be an integer in [1, 3], got True"),
                             ({"s_true": 2.0}, "s_true must be an integer in [1, 3], got 2.0"),
                             ({"noise": True}, number + "True"), ({"noise": "0"}, number + "'0'"),
                             ({"seed": -1}, "seed must be an integer >= 0, got -1"),
                             ({"seed": True}, "seed must be an integer >= 0, got True"),
                             ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                generate_instance(**{"d": 4, "m": 3, "s_true": 1, "noise": 0.0, "seed": 0, **bad})
        # the starts follow the same rule for their count and their seed
        for args, message in [((4, 2.0, 1), "starts must be an integer >= 0, got 2.0"),
                              ((4, -1, 1), "starts must be an integer >= 0, got -1"),
                              ((4, 2, -1), "seed must be an integer >= 0, got -1"),
                              ((4, 2, True), "seed must be an integer >= 0, got True"),
                              ((4, 2, 1.5), "seed must be an integer >= 0, got 1.5")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                draw_starts(*args, None)
        # numpy scalars are counts and numbers too, with the same draw
        payload, _, _ = generate_instance(d=np.int64(4), m=np.int64(3), s_true=np.int64(2),
                                          noise=np.float64(0.1), seed=np.int64(0))
        expected, _, _ = generate_instance(d=4, m=3, s_true=2, noise=0.1, seed=0)
        assert payload.keys() == expected.keys()
        for key, value in expected.items():
            np.testing.assert_array_equal(payload[key], value)

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
        (["--seed", "-1"], "inst.json", "seed must be an integer >= 0, got -1"),
        ([], "missing/inst.json", "No such file or directory"),
    ], ids=["negative-theta", "theta-without-l1", "l1-without-theta", "noise-nan",
            "seed-negative", "missing-directory"])
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
        payload, inst, x_true = generate_instance(d=7, m=5, s_true=2, noise=0.1, seed=12,
                                                  kind="dense-symmetric")
        path, again = tmp_path / "inst.json", tmp_path / "again.json"
        save_instance(payload, path)
        loaded, x_loaded = load_instance(path)
        # after the header line: b, x_true, then the 5 rows of 28 packed values
        data = np.frombuffer(path.read_bytes().split(b"\n", 1)[1], dtype="<f8")
        assert data.size == 5 + 7 + 5 * 28
        assert loaded.lower.tobytes() == data[12:].tobytes() == inst.lower.tobytes()
        # read-only float64, sharing memory with no writable array: every
        # array down the chain of bases is read-only, and the memory is the
        # bytes the file was read into (or an array that owns it)
        for a in (loaded.lower, loaded.b):
            assert a.dtype == np.float64 and not a.flags.writeable
            base = a
            while isinstance(base, np.ndarray):
                assert not base.flags.writeable
                base = base.base
            assert base is None or isinstance(base, bytes)
        # x_true is the caller's own, writable copy
        assert x_loaded.flags.writeable and not np.shares_memory(x_loaded, loaded.b)
        save_instance(instance_to_payload(loaded, x_loaded), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.fixture()
    def benchmark_dense_file(self, tmp_path):
        payload, _, _ = generate_instance(d=64, m=256, s_true=4, noise=0.0, seed=1,
                                          kind="dense-symmetric")
        path = tmp_path / "dense.json"
        save_instance(payload, path)
        return payload, path

    def test_dense_load_peaks_near_the_file_size(self, benchmark_dense_file):
        # the benchmark's dense size; the floor is the one bytes object the
        # data is read into, and every copy of the matrices adds 1x
        _, path = benchmark_dense_file
        tracemalloc.start()
        try:
            load_instance(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * path.stat().st_size

    def test_save_peaks_near_the_file_size(self, benchmark_dense_file, tmp_path):
        # a save writes the arrays' own memory; a tobytes() copy of the
        # matrices alone would take 1x the file
        payload, path = benchmark_dense_file
        again = tmp_path / "again.json"
        tracemalloc.start()
        try:
            save_instance(payload, again)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.read_bytes() == path.read_bytes()
        assert peak <= 1.1 * again.stat().st_size

    def test_rank_one_bit_exact(self, tmp_path):
        payload, inst, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=10)
        path = tmp_path / "inst.json"
        save_instance(payload, path)
        loaded, _ = load_instance(path)
        np.testing.assert_array_equal(loaded.factors, inst.factors)
        np.testing.assert_array_equal(loaded.b, inst.b)

    def test_dense_golden_lower_triangle(self, tmp_path):
        # the header line, then b = 1 and the row-major lower triangle a00,
        # a10, a11, a20, a21, a22 = 1, -0.5, 2, 0.1, 3, -1.5, as little-endian
        # float64 bytes
        golden = (b'{"d":3,"encoding":"dense-symmetric","m":1,'
                  b'"regularizer":{"kind":"l0","s":1},"schema":3,"x_true":false}\n'
                  + bytes.fromhex("000000000000f03f" "000000000000f03f" "000000000000e0bf"
                                  "0000000000000040" "9a9999999999b93f" "0000000000000840"
                                  "000000000000f8bf"))
        path = tmp_path / "golden.json"
        path.write_bytes(golden)
        inst, x_true = load_instance(path)
        expected = np.array([[1.0, -0.5, 0.1],
                             [-0.5, 2.0, 3.0],
                             [0.1, 3.0, -1.5]])
        np.testing.assert_array_equal(dense_stack(inst)[0], expected)
        assert x_true is None
        save_instance(instance_to_payload(inst), path)
        assert path.read_bytes() == golden

    def test_l1_regularizer_round_trip(self, tmp_path):
        _, inst, _ = generate_instance(d=4, m=6, s_true=1, noise=0.0, seed=11,
                                       regularizer=L1(theta=0.37))
        # theta is a JSON number in the header, which repr round-trips exactly
        path = tmp_path / "inst.json"
        save_instance(instance_to_payload(inst), path)
        assert b'"regularizer":{"kind":"l1","theta":0.37}' in path.read_bytes().split(b"\n")[0]
        loaded = load_instance(path)[0].regularizer
        assert isinstance(loaded, L1) and loaded.theta == 0.37


def small_file(kind="rank-one"):
    """The header and arrays of a d=4, m=4 instance, to edit and write with :func:`write_file`."""
    payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0, kind=kind)
    field = "factors" if kind == "rank-one" else "matrices"
    header = {key: payload[key] for key in ("d", "encoding", "m", "regularizer", "schema")}
    return {**header, "x_true": True}, [payload["b"], payload["x_true"], payload[field]]


def write_file(path, header, arrays):
    """A schema-3 file written without the package's writer: the header as one
    JSON line, then each array's little-endian float64 bytes (a ``bytes`` item as it is)."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for a in arrays:
            fh.write(a if isinstance(a, bytes) else np.asarray(a, dtype="<f8").tobytes())
    return path


def assert_one_error_line(capsys, path, message, argvs=(["check", "--instance"],)):
    """Each verb in ``argvs`` exits 2 on the file and prints one ``error: <path>: ...``
    line, which holds ``message``; returns that line."""
    for argv in argvs:
        assert main([*argv, str(path)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and message in err[0]
        assert captured.out == ""
    return err[0]


class TestValidation:
    def test_bad_schema_version(self, tmp_path, capsys):
        payload, inst, x_true = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        # the JSON object that schema 2 wrote, indented, with each array one
        # base64 string of its float64 bytes; schema 1 wrote hexadecimal floats
        def b64(a):
            return base64.b64encode(np.asarray(a, dtype="<f8").tobytes()).decode()

        schema_2 = {"schema": 2, "d": 4, "m": 4, "encoding": "rank-one", "b": b64(inst.b),
                    "factors": b64(inst.factors), "x_true": b64(x_true),
                    "regularizer": {"kind": "l0", "s": 1}}
        schema_1 = {**schema_2, "schema": 1, "b": [v.hex() for v in inst.b.tolist()],
                    "factors": [[v.hex() for v in row] for row in inst.factors.tolist()],
                    "x_true": [v.hex() for v in x_true.tolist()]}
        path, out = tmp_path / "bad.json", tmp_path / "run"
        header, arrays = small_file()
        write_file(path, {**header, "schema": 99}, arrays)
        files = [path.read_bytes()]
        for old in (schema_2, schema_1):
            files.append(json.dumps(old, sort_keys=True, indent=1).encode() + b"\n")
        for content in files:
            path.write_bytes(content)
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

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        # b one value short of m: the data after b shifts, and the file
        # comes up short in its last field
        payload, _, _ = generate_instance(d=4, m=4, s_true=1, noise=0.0, seed=0)
        payload["b"] = payload["b"][:-1]
        path = tmp_path / "bad.json"
        save_instance(payload, path)
        assert_one_error_line(capsys, path, "field 'factors': the file ends 8 bytes short")

    @pytest.mark.parametrize("edit, field", [
        (lambda h, a: ([h], a), "JSON object"),
        (lambda h, a: (h, a[1:]), "'factors': the file ends 32 bytes short of its 16 float64 values"),
        (lambda h, a: ({**h, "encoding": "sparse"}, a),
         "field 'encoding': unknown encoding 'sparse'"),
        (lambda h, a: ({**h, "encoding": ["rank-one"]}, a),
         "field 'encoding': unknown encoding ['rank-one']"),
        (lambda h, a: ({**h, "regularizer": "l0"}, a),
         "field 'regularizer': expected an object with a 'kind'"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l2"}}, a),
         "field 'regularizer.kind': unknown kind 'l2'"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l1"}}, a), "regularizer.theta"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l1", "theta": "0.1"}}, a),
         "field 'regularizer.theta': l1 weight theta must be a real number in the float64 range, got '0.1'"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l0"}}, a), "regularizer.s"),
        (lambda h, a: ({**h, "d": None}, a), "'d'"),
        (lambda h, a: ({**h, "x_true": 1}, a), "field 'x_true': expected true or false, got 1"),
        (lambda h, a: ({k: v for k, v in h.items() if k != "x_true"}, a),
         "field 'x_true': expected true or false, got None"),
        (lambda h, a: (h, [*a[:2], [3.0]]),
         "'factors': the file ends 120 bytes short of its 16 float64 values"),
        (lambda h, a: (h, [a[0].tobytes()[:3]]),
         "'b': the file ends 29 bytes short of its 4 float64 values"),
        (lambda h, a: (h, [a[0], a[1].tobytes()[:3]]),
         "'x_true': the file ends 29 bytes short of its 4 float64 values"),
        (lambda h, a: ({**h, "x_true": False}, a), "32 bytes follow the last field 'factors'"),
        # the data is read only up to the file's end, never the 8 TB the header claims
        (lambda h, a: ({**h, "d": 10**6, "m": 10**6}, a),
         "'b': the file ends 7999808 bytes short of its 1000000 float64 values"),
        (lambda h, a: ({k: v for k, v in h.items() if k != "regularizer"}, a),
         "field 'regularizer': expected an object with a 'kind'"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l1", "theta": 10**400}}, a),
         "field 'regularizer.theta': l1 weight theta must be a real number in the float64 range, "
         "got an integer of 1329 bits"),
        # the whole header is checked before the data is read, or found short
        (lambda h, a: ({**h, "d": 10**6, "m": 10**6, "regularizer": {"kind": "l2"}}, a),
         "field 'regularizer.kind': unknown kind 'l2'"),
        # each regularizer parameter is checked by its class, and named as a field
        (lambda h, a: ({**h, "regularizer": {"kind": "l1", "theta": -1}}, a),
         "field 'regularizer.theta': l1 weight must be positive and finite, got -1.0"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l1", "theta": math.nan}}, a),  # the literal NaN
         "field 'regularizer.theta': l1 weight must be positive and finite, got nan"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l0", "s": 0}}, a),
         "field 'regularizer.s': sparsity level s must be an integer >= 1, got 0"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l0", "s": True}}, a),
         "field 'regularizer.s': sparsity level s must be an integer >= 1, got True"),
        (lambda h, a: ({**h, "regularizer": {"kind": "l0", "s": 4}}, a),
         "field 'regularizer.s': l0 sparsity level must satisfy 1 <= s < d, got s=4, d=4"),
        (lambda h, a: ({**h, "d": 10**6, "m": 10**6, "regularizer": {"kind": "l0", "s": 10**7}}, a),
         "field 'regularizer.s': l0 sparsity level must satisfy 1 <= s < d, got s=10000000, d=1000000"),
    ], ids=["not-an-object", "b-missing", "unknown-encoding", "encoding-a-list",
            "regularizer-not-an-object", "unknown-regularizer", "theta-missing", "theta-a-string",
            "s-missing", "d-null", "x-true-not-a-bool", "x-true-missing", "factors-a-number",
            "b-three-bytes", "x-true-three-bytes", "x-true-unannounced", "huge-dimensions",
            "regularizer-missing", "theta-past-float64", "header-before-body", "theta-negative",
            "theta-nan", "s-zero", "s-a-bool", "s-equal-to-d", "s-before-body"])
    def test_payload_shape_rejected(self, tmp_path, capsys, edit, field):
        path, out = write_file(tmp_path / "bad.json", *edit(*small_file())), tmp_path / "run"
        with pytest.raises(ValueError, match=re.escape(field)):
            load_instance(path)
        assert_one_error_line(capsys, path, field,
                              (["check", "--instance"], ["solve", "--out", str(out), "--instance"]))
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("kind, field", [
        ("rank-one", "b"), ("dense-symmetric", "b"),
        ("rank-one", "factors"), ("dense-symmetric", "matrices"),
    ])
    def test_non_finite_data_rejected(self, tmp_path, capsys, kind, field):
        header, arrays = small_file(kind)
        arrays = [a.copy() for a in arrays]
        arrays[0 if field == "b" else 2].reshape(-1)[-1] = np.nan
        path = write_file(tmp_path / "bad.json", header, arrays)
        line = assert_one_error_line(capsys, path, f"{field} must be finite")
        assert "only zero measurement matrices" not in line

    @pytest.mark.parametrize("kind, field, n", [
        ("rank-one", "factors", 4), ("dense-symmetric", "matrices", 10),
    ])
    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [rows[:-1]], "the file ends 8 bytes short of its"),
        (lambda rows: [np.append(rows, 1.0)], "8 bytes follow the last field"),
        (lambda rows: [], "short of its"),
        (lambda rows: [rows, b"\n"], "1 bytes follow the last field"),
        (lambda rows: [rows[:-1], b"\0" * 5], "the file ends 3 bytes short of its"),
        # the rows as a JSON string of their bytes' hex digits, 2 characters a byte
        (lambda rows: [json.dumps(rows.tobytes().hex()).encode()], "bytes follow the last field"),
        # a UTF-8 e-acute for one byte of the first value: the data is counted
        # in bytes, and the 2-byte character leaves one too many
        (lambda rows: [rows.tobytes()[:8] + "\u00e9".encode() + rows.tobytes()[9:]],
         "1 bytes follow the last field"),
    ], ids=["short-row", "long-row", "row-null", "stray-newline", "partial-value",
            "row-a-string", "non-ascii"])
    def test_bad_rows_name_the_field(self, tmp_path, capsys, kind, field, n, edit, message):
        # the m rows of n values are the last field of the file
        header, (b, x_true, rows) = small_file(kind)
        assert rows.shape == (4, n)
        path = write_file(tmp_path / "bad.json", header, [b, x_true, *edit(rows.reshape(-1))])
        with pytest.raises(ValueError, match=f"'{field}'") as excinfo:
            load_instance(path)
        assert message in str(excinfo.value)
        assert_one_error_line(capsys, path, f"'{field}'")

    @pytest.mark.parametrize("content, message", [
        # past the parser's recursion limit, in a first line of 64 KiB
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        # a Latin-1 e-acute
        (b'{"schema": 3, "d": "caf\xe9"}\n', "'utf-8' codec can't decode byte 0xe9"),
        (b"", "field 'schema': no JSON header line"),
        # the first line is read up to 64 KiB, which cuts this string short
        (b'{"schema": 3, "note": "' + b"x" * 70_000 + b'"}\n',
         "no JSON header line (Unterminated string starting at: character 22)"),
    ], ids=["nested-too-deep", "not-utf-8", "empty", "header-past-64-kib"])
    def test_unreadable_file_is_one_error_line(self, tmp_path, capsys, content, message):
        path, out = tmp_path / "bad.json", tmp_path / "run"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_instance(path)
        assert_one_error_line(capsys, path, message,
                              (["check", "--instance"], ["solve", "--out", str(out), "--instance"]))
        assert sorted(tmp_path.iterdir()) == [path]

    def test_invalid_json_reports_line(self, tmp_path):
        # the header line is checked as JSON on its own; the error gives its position
        path = tmp_path / "broken.json"
        path.write_text('{"schema": 3, "d": }\n')
        with pytest.raises(ValueError, match=r"no JSON header line \(Expecting value: character 19\)"):
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
        ["--seed", "-1"],
    ], ids=["max-iters", "tol-step", "tol-step-nan", "tol-residual-nan", "tol-residual",
            "theta-without-reg", "s-with-l1", "l0-without-s", "lambda-text", "seed-negative"])
    def test_bad_run_parameters_leave_no_output(self, instance_path, tmp_path, capsys, args):
        out = tmp_path / "run"
        code = exit_code(["solve", "--instance", str(instance_path), *args, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        # the error names the first flag's parameter
        assert "error:" in err and args[0].lstrip("-").replace("-", "_") in err
        assert not out.exists()

    def test_defaults_are_the_configs(self):
        # every run parameter that bpg solve shares with BpgConfig has the config's default
        args = cli.build_parser().parse_args(["solve", "--instance", "i.json", "--out", "run"])
        shared = [f.name for f in fields(BpgConfig) if hasattr(args, f.name)]
        assert shared == ["lam", "max_iters", "tol_step", "tol_residual"]
        assert [getattr(args, name) for name in shared] == [getattr(BpgConfig, name) for name in shared]


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
        ["--seed", "-1"],
    ], ids=["samples-0", "samples-negative", "radius-nan", "radius-0", "radius-inf",
            "seed-negative"])
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
