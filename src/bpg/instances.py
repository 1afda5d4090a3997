"""Instance file schema 3, bit-exact round trips, and synthetic generation.

A file is one line of compact, sorted-key JSON, the header, then the
little-endian C-order float64 bytes of ``b``, ``x_true`` (if the header's
``x_true`` is true) and the ``matrices`` (row-major lower triangles, as in
``QipInstance.lower``) or rank-one ``factors``.  A load reads them in one read
into one ``bytes`` object that every array views and ``QipInstance`` keeps.  A
payload is the header as a dict with the arrays (``x_true`` or None) in it.
"""

import json
import math
import os

import numpy as np

from .qip import L0Ball, L1, QipInstance, _check_sparsity, qip_value

SCHEMA_VERSION = 3

DENSE_SYMMETRIC = "dense-symmetric"
RANK_ONE = "rank-one"

_ARRAYS = ("b", "x_true", "matrices", "factors")  # in file order


def _decode(header):
    """Check every header field; returns the regularizer and each array's (name, shape), in file order."""
    if not isinstance(header, dict):
        raise ValueError(f"expected a JSON object, got {type(header).__name__}")
    if header.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"field 'schema': expected {SCHEMA_VERSION}, got {header.get('schema')!r}; "
                         "regenerate the file with 'bpg generate'")
    d, m = header.get("d"), header.get("m")
    if type(d) is not int or type(m) is not int or d < 1 or m < 1:
        raise ValueError(f"fields 'd'/'m' must be positive integers, got d={d!r}, m={m!r}")
    if type(header.get("x_true")) is not bool:
        raise ValueError(f"field 'x_true': expected true or false, got {header.get('x_true')!r}")
    encoding = header.get("encoding")
    if encoding not in (RANK_ONE, DENSE_SYMMETRIC):  # not a dict lookup: a list does not hash
        raise ValueError(f"field 'encoding': unknown encoding {encoding!r}")
    spec = header.get("regularizer")
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("field 'regularizer': expected an object with a 'kind'")
    kind = spec["kind"]
    if kind not in ("l1", "l0"):  # a tuple, as for the encoding: a list does not hash
        raise ValueError(f"field 'regularizer.kind': unknown kind {kind!r}")
    param = "theta" if kind == "l1" else "s"
    try:  # the regularizer's own rule, and s < d for the header's d
        regularizer = (L1 if kind == "l1" else L0Ball)(spec.get(param))
        _check_sparsity(regularizer, d)
    except ValueError as exc:
        raise ValueError(f"field 'regularizer.{param}': {exc}") from None
    data = ("factors", (m, d)) if encoding == RANK_ONE else ("matrices", (m, d * (d + 1) // 2))
    return regularizer, [("b", (m,)), *([("x_true", (d,))] if header["x_true"] else []), data]


def instance_to_payload(inst, x_true=None):
    reg = inst.regularizer
    payload = {"schema": SCHEMA_VERSION, "d": inst.d, "m": inst.m, "b": inst.b, "x_true": x_true,
               "regularizer": ({"kind": "l1", "theta": reg.theta} if isinstance(reg, L1)
                               else {"kind": "l0", "s": int(reg.s)})}
    if inst.factors is not None:
        payload.update(encoding=RANK_ONE, factors=inst.factors)
    else:
        payload.update(encoding=DENSE_SYMMETRIC, matrices=inst.lower)
    return payload


def save_instance(payload, path):
    """Write a payload as a schema-3 file: the header line, then each array's bytes, uncopied."""
    header = {key: value for key, value in payload.items() if key not in _ARRAYS}
    header["x_true"] = payload.get("x_true") is not None
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":"), allow_nan=False).encode() + b"\n")
        for name in _ARRAYS:
            if payload.get(name) is not None:
                fh.write(np.ascontiguousarray(payload[name], dtype="<f8"))


def load_instance(path):
    """Read an instance file; returns (instance, x_true-or-None).  A bad file is a ValueError naming it.

    Reads the header line, then exactly the byte count it gives in one read, so
    a load peaks at about the file size."""
    try:
        with open(path, "rb") as fh:
            line = fh.readline(1 << 16)  # a header takes about a hundred bytes
            try:
                header = json.loads(line.decode("utf-8"))
            except json.JSONDecodeError as exc:  # as for an indented JSON file of schema 2 or older
                raise ValueError(f"field 'schema': no JSON header line ({exc.msg}: character {exc.pos}); "
                                 "regenerate the file with 'bpg generate'") from None
            regularizer, fields = _decode(header)
            size = 8 * sum(math.prod(shape) for _, shape in fields)
            held = os.fstat(fh.fileno()).st_size - fh.tell()  # bytes after the header
            raw = fh.read(min(size, max(held, 0)))
        arrays, offset = {}, 0
        for name, shape in fields:
            count = math.prod(shape)
            if len(raw) < offset + 8 * count:
                raise ValueError(f"field {name!r}: the file ends {offset + 8 * count - len(raw)} bytes "
                                 f"short of its {count} float64 values")
            arrays[name] = np.frombuffer(raw, "<f8", count, offset).reshape(shape)
            offset += 8 * count
        if held > size:
            raise ValueError(f"{held - size} bytes follow the last field {name!r}")
        inst = QipInstance(b=arrays["b"], regularizer=regularizer,
                           lower=arrays.get("matrices"), factors=arrays.get("factors"))
        return inst, arrays["x_true"].copy() if "x_true" in arrays else None
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None


def generate_instance(d, m, s_true, noise, seed, kind=RANK_ONE, regularizer=None):
    """Draw a synthetic instance with a planted sparse ground truth.

    The ground truth has exactly ``s_true`` nonzero entries (standard normal);
    measurements are b_i = x*^T A_i x* + noise * eps_i.  Deterministic under
    ``seed``.  Returns (payload, instance, x_true); by default the stored
    regularizer is the l0 ball at the true sparsity.
    """
    if d < 2 or m < 1:
        raise ValueError(f"require d >= 2 and m >= 1, got d={d}, m={m}")
    if not 1 <= s_true < d:
        raise ValueError(f"require 1 <= s_true < d, got s_true={s_true}, d={d}")
    if not noise >= 0:
        raise ValueError(f"noise level must be nonnegative, got {noise}")
    if kind not in (RANK_ONE, DENSE_SYMMETRIC):
        raise ValueError(f"unknown measurement kind {kind!r}")
    rng = np.random.default_rng(seed)
    x_true = np.zeros(d)
    support = rng.choice(d, size=s_true, replace=False)
    x_true[support] = rng.standard_normal(s_true)
    if regularizer is None:
        regularizer = L0Ball(s=s_true)
    if kind == RANK_ONE:
        factors = rng.standard_normal((m, d))
        clean, data = (factors @ x_true) ** 2, {"factors": factors}
    else:
        raw = rng.standard_normal((m, d, d))
        matrices = 0.5 * (raw + np.transpose(raw, (0, 2, 1)))
        clean, data = np.einsum("i,mij,j->m", x_true, matrices, x_true), {"matrices": matrices}
    with np.errstate(over="ignore"):  # an overflow is an inf, refused below
        b = clean + noise * rng.standard_normal(m)
    if not np.isfinite(b).all():
        raise ValueError(f"noise level {noise} overflows float64 in the measurements b")
    inst = QipInstance(b=b, regularizer=regularizer, **data)
    if noise == 0:
        assert qip_value(inst, x_true) <= 1e-20
    return instance_to_payload(inst, x_true), inst, x_true
