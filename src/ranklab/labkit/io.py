"""Instance files and run reports.

Instance files are JSON documents with exactly these keys:

  kind         "rd" | "minrank"
  q_char       characteristic p
  q_deg        s with q = p^s
  q_modulus    monic modulus of F_q over F_p, low coefficient first
               ([0, 1] for prime q)
  m            extension degree (rd) or matrix row count (minrank)
  ext_modulus  monic modulus of F_{q^m} over F_q (rd), [] for minrank
  n            code length / matrix column count
  k_or_K       code dimension (rd) / number of combination matrices (minrank)
  r            target rank
  generator    k x n matrix of element codes (rd only)
  received     length-n vector of element codes (rd only)
  matrices     K+1 matrices of base-field codes, constant one first (minrank)
  witness      optional; rd: {x, support, coeffs}; minrank: {x}

Element codes are the base-q little-endian packings used everywhere in the
package.  Parsers reject unknown or missing keys, and moduli must match the
package's deterministic field construction (fields are not reconstructed
from arbitrary moduli).  Shapes, code ranges, 0 < k < n and the bounds on r
are checked before any field arithmetic runs; a rejected file raises
ValueError with a one-line reason.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Tuple, Union

import numpy as np

from ..galois import make_base_field
from ..instances import MinRankInstance, RdInstance, RdWitness, check_params
from .. import matlin as ml

__all__ = ["write_instance", "read_instance", "report_text", "report_json"]

_RD_KEYS = {"kind", "q_char", "q_deg", "q_modulus", "m", "ext_modulus", "n",
            "k_or_K", "r", "generator", "received", "witness"}
_MR_KEYS = {"kind", "q_char", "q_deg", "q_modulus", "m", "ext_modulus", "n",
            "k_or_K", "r", "matrices", "witness"}


def _base_header(base) -> Dict:
    """q_char, q_deg and q_modulus of the base field F_q."""
    prime = base.base is None
    return {"q_char": base.char, "q_deg": 1 if prime else base.degree,
            "q_modulus": [0, 1] if prime else list(base.modulus)}


def _field_header(inst: Union[RdInstance, MinRankInstance]) -> Dict:
    if isinstance(inst, RdInstance):
        ext = inst.field
        return {**_base_header(ext.base), "m": ext.degree, "ext_modulus": list(ext.modulus)}
    return {**_base_header(inst.field), "m": inst.m, "ext_modulus": []}


def write_instance(path: str, inst: Union[RdInstance, MinRankInstance]) -> None:
    doc: Dict = {"kind": "rd" if isinstance(inst, RdInstance) else "minrank"}
    doc.update(_field_header(inst))
    doc["n"] = inst.n
    doc["r"] = inst.r
    if isinstance(inst, RdInstance):
        doc["k_or_K"] = inst.k
        doc["generator"] = inst.gen.tolist()
        doc["received"] = inst.received.tolist()
        if inst.witness is not None:
            doc["witness"] = {
                "x": inst.witness.x.tolist(),
                "support": inst.witness.support.tolist(),
                "coeffs": inst.witness.coeffs.tolist(),
            }
    else:
        doc["k_or_K"] = inst.K
        doc["matrices"] = [mi.tolist() for mi in inst.mats]
        if inst.witness is not None:
            doc["witness"] = {"x": inst.witness.tolist()}
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_instance(path: str) -> Union[RdInstance, MinRankInstance]:
    """Parse and validate an instance file; ValueError names the first fault."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("instance file must hold a JSON object")
    kind = doc.get("kind")
    if kind not in ("rd", "minrank"):
        raise ValueError(f"unknown instance kind {kind!r}")
    allowed = _RD_KEYS if kind == "rd" else _MR_KEYS
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown fields in instance file: {sorted(unknown)}")
    missing = allowed - {"witness"} - set(doc)
    if missing:
        raise ValueError(f"missing fields in instance file: {sorted(missing)}")
    for key in ("q_char", "q_deg", "m", "n", "k_or_K", "r"):
        if type(doc[key]) is not int:
            raise ValueError(f"{key} must be an integer, got {doc[key]!r}")
    m, n, k, r = doc["m"], doc["n"], doc["k_or_K"], doc["r"]
    # field tables stop at 2^22 elements, so no larger exponent is worth computing
    if not (doc["q_char"] >= 2 and 1 <= doc["q_deg"] <= 22 and m >= 1 and n >= 1):
        raise ValueError("need q_char >= 2, 1 <= q_deg <= 22, m >= 1 and n >= 1")
    if kind == "rd" and m > 22:
        raise ValueError(f"extension degree {m} exceeds the field table limit")
    base = make_base_field(doc["q_char"] ** doc["q_deg"])
    if base.char != doc["q_char"]:
        raise ValueError(f"q_char {doc['q_char']} is not a prime")
    q = base.order
    if doc["q_modulus"] != _base_header(base)["q_modulus"]:
        raise ValueError("base-field modulus does not match the deterministic choice")
    fld = check_params(kind, q, m, n, k, r)
    if kind == "rd":
        if doc["ext_modulus"] != list(fld.modulus):
            raise ValueError("extension modulus does not match the deterministic choice")
        gen = _codes(doc["generator"], (k, n), fld.order, "generator")
        received = _codes(doc["received"], (n,), fld.order, "received")
        witness = None
        if "witness" in doc:
            w = _witness_doc(doc, {"x", "support", "coeffs"})
            x = _codes(w["x"], (k,), fld.order, "witness x")
            support = _codes(w["support"], (r,), fld.order, "witness support")
            coeffs = _codes(w["coeffs"], (r, n), q, "witness coeffs")
            error = ml.matmul(fld, support[None, :], coeffs)[0] if r \
                else np.zeros(n, dtype=np.int64)
            witness = RdWitness(x, support, coeffs, error)
        inst = RdInstance(fld, n, k, r, gen, received, witness)
        if witness is not None and not inst.verify_witness():
            raise ValueError("witness does not verify against the instance")
        return inst
    if not isinstance(doc["matrices"], list) or len(doc["matrices"]) != k + 1:
        raise ValueError("matrix count does not match k_or_K + 1")
    mats = tuple(_codes(mi, (m, n), q, f"matrix {i}") for i, mi in enumerate(doc["matrices"]))
    witness = None
    if "witness" in doc:
        witness = _codes(_witness_doc(doc, {"x"})["x"], (k,), q, "witness x")
    inst = MinRankInstance(base, m, n, k, r, mats, witness)
    if witness is not None and not inst.verify_witness():
        raise ValueError("witness does not verify against the instance")
    return inst


def _witness_doc(doc: Dict, keys) -> Dict:
    w = doc["witness"]
    if not isinstance(w, dict) or set(w) != keys:
        raise ValueError(f"witness must hold exactly the keys {sorted(keys)}")
    return w


def _codes(value, shape: Tuple[int, ...], order: int, name: str) -> np.ndarray:
    """Element codes as an int64 array of the given shape, each in [0, order)."""
    try:
        arr = np.asarray(value)
    except ValueError:                  # nested lists of unequal lengths
        raise ValueError(f"{name} is not a rectangular array") from None
    if arr.size == 0 and 0 in shape:
        return np.zeros(shape, dtype=np.int64)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    # by element type: numpy reads [1, true] as the integers [1, 1]
    if not set(map(type, np.asarray(value, dtype=object).flat)) <= {int}:
        raise ValueError(f"{name} holds codes that are not integers")
    if arr.dtype == object or ((arr < 0) | (arr >= order)).any():   # object: beyond 64 bits
        raise ValueError(f"{name} holds codes outside [0, {order})")
    return arr.astype(np.int64)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def report_json(obj) -> str:
    """Machine-readable report document for dataclass-like results."""
    def default(o):
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            return dataclasses.asdict(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (np.integer,)):
            return int(o)
        if isinstance(o, float) and o == float("inf"):
            return "inf"
        return str(o)
    return json.dumps(obj, default=default, indent=2)


def report_text(obj) -> str:
    """Human-oriented rendering for the report objects used by the CLI."""
    from .experiments import ExperimentReport

    if isinstance(obj, ExperimentReport):
        lines = [obj.one_line()]
        lines += [f"  {f}" for f in obj.failures]
        return "\n".join(lines)
    if isinstance(obj, dict):
        return "\n".join(f"{k}: {report_text(v)}" for k, v in obj.items())
    if isinstance(obj, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in obj):
            return str(list(obj))
        return "\n".join(report_text(v) for v in obj)
    return str(obj)
