"""Instance file schema, round-trip exact serialization, and synthetic generation.

Files are JSON objects in which every float array (``b``, ``x_true``, the
packed ``matrices`` rows, ``factors`` and the 0-d ``regularizer.theta``) is
one base64 string of its little-endian float64 bytes in C order, which
round-trips bit-exactly.  Dense symmetric matrices are stored as row-major
lower triangles, which is also how ``QipInstance`` holds them (``lower``,
one row per matrix), so a load decodes the bytes straight into that array,
with no copy, and a save encodes it as it is.  Rank-one instances store the
factor vectors a_i with A_i = a_i a_i^T.
"""

import base64
import binascii
import json
import math

import numpy as np

from .qip import L0Ball, L1, QipInstance, qip_value

SCHEMA_VERSION = 2

DENSE_SYMMETRIC = "dense-symmetric"
RANK_ONE = "rank-one"


def _encode(a):
    """Base64 of the little-endian float64 bytes of a, in C order."""
    return base64.b64encode(np.ascontiguousarray(a, dtype="<f8").tobytes()).decode("ascii")


def _decode(text, shape, field):
    """A read-only float64 view of the given shape of the ``bytes`` its :func:`_encode` text
    decodes to, which ``QipInstance`` keeps uncopied.  ``a2b_base64`` reads an ASCII str in place."""
    if not isinstance(text, str):
        raise ValueError(f"field {field!r}: expected a base64 string, got {type(text).__name__}")
    try:
        raw = binascii.a2b_base64(text, strict_mode=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII string
        raise ValueError(f"field {field!r}: invalid base64 ({exc})") from None
    count = math.prod(shape)
    if len(raw) != 8 * count:
        raise ValueError(f"field {field!r}: expected {8 * count} bytes ({count} float64 values), "
                         f"got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _reg_to_payload(reg):
    if isinstance(reg, L1):
        return {"kind": "l1", "theta": _encode(reg.theta)}
    return {"kind": "l0", "s": int(reg.s)}


def _reg_from_payload(spec):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("field 'regularizer': expected an object with a 'kind'")
    kind = spec["kind"]
    if kind == "l1":
        return L1(theta=float(_decode(spec.get("theta"), (), "regularizer.theta")))
    if kind == "l0":
        s = spec.get("s")
        if type(s) is not int:
            raise ValueError(f"field 'regularizer.s': expected an integer, got {s!r}")
        return L0Ball(s=s)
    raise ValueError(f"field 'regularizer.kind': unknown kind {kind!r}")


def instance_to_payload(inst, x_true=None):
    payload = {
        "schema": SCHEMA_VERSION,
        "d": inst.d,
        "m": inst.m,
        "b": _encode(inst.b),
        "regularizer": _reg_to_payload(inst.regularizer),
        "x_true": None if x_true is None else _encode(x_true),
    }
    if inst.factors is not None:
        payload["encoding"] = RANK_ONE
        payload["factors"] = _encode(inst.factors)
    else:
        payload["encoding"] = DENSE_SYMMETRIC
        payload["matrices"] = _encode(inst.lower)
    return payload


def payload_to_instance(payload):
    """Decode a payload dict; returns (instance, x_true-or-None), x_true a writable copy."""
    if not isinstance(payload, dict):
        raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"field 'schema': expected {SCHEMA_VERSION}, got {payload.get('schema')!r}; "
                         "regenerate the file with 'bpg generate'")
    for key in ("d", "m", "encoding", "b", "regularizer"):
        if key not in payload:
            raise ValueError(f"missing required field {key!r}")
    d, m = payload["d"], payload["m"]
    if type(d) is not int or type(m) is not int or d < 1 or m < 1:
        raise ValueError(f"fields 'd'/'m' must be positive integers, got d={d!r}, m={m!r}")
    b = _decode(payload["b"], (m,), "b")
    reg = _reg_from_payload(payload["regularizer"])
    encoding = payload["encoding"]
    if encoding == RANK_ONE:
        factors = _decode(payload.get("factors"), (m, d), "factors")
        inst = QipInstance(b=b, regularizer=reg, factors=factors)
    elif encoding == DENSE_SYMMETRIC:
        lower = _decode(payload.get("matrices"), (m, d * (d + 1) // 2), "matrices")
        inst = QipInstance(b=b, regularizer=reg, lower=lower)
    else:
        raise ValueError(f"field 'encoding': unknown encoding {encoding!r}")
    x_true = payload.get("x_true")
    if x_true is not None:
        x_true = _decode(x_true, (d,), "x_true").astype(float)
    return inst, x_true


def save_instance(payload, path):
    """Write a payload as deterministic JSON (sorted keys, fixed separators)."""
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_instance(path):
    """Read an instance file; returns (instance, x_true-or-None).  A bad file is a ValueError naming it.

    Peaks at about twice the file size: the file's text and the string JSON parses from it."""
    try:
        with open(path, encoding="utf-8") as fh:  # not the locale's encoding
            payload = json.load(fh)
        return payload_to_instance(payload)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
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
