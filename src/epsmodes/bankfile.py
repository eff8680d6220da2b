"""Binary persistence for mode banks.

Layout (little-endian):

=======  ======================================================
offset   content
=======  ======================================================
0        magic ``QMB1``
4        u32 format version (currently 1)
8        u32 dims[3]
20       f64 spacing
28       u32 mode count
32       u8 variant (0 nonmagnetic, 1 magnetic)
33       per mode: f64 frequency, then 3 * ncells f64 g-field
         components, each component raveled x-fastest
=======  ======================================================

A JSON sidecar (same path plus ``.json``) stores the medium descriptor,
Gram/residual metadata and the solver seed.  Round trips are bit-exact:
the g fields, the only form a bank holds, are read back bitwise into the
same C-ordered layout the solver produces, and the permittivity is
rebuilt from the descriptor.
"""

from __future__ import annotations

import json
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import BankFileError, ProfileError
from .lattice import Grid
from .medium import (
    Descriptor,
    EmptyCavity,
    Homogeneous,
    Layer,
    SlabStack,
    Sphere,
    build_profile,
)
from .modes import MAGNETIC, NONMAGNETIC, ModeBank

MAGIC = b"QMB1"
VERSION = 1
_HEADER = struct.Struct("<4sI3IdIB")
_VARIANT_CODE = {NONMAGNETIC: 0, MAGNETIC: 1}
_VARIANT_NAME = {v: k for k, v in _VARIANT_CODE.items()}


def _body_dtype(grid: Grid) -> np.dtype:
    """One mode record: the frequency, then g with each component x-fastest."""
    nx, ny, nz = grid.dims
    return np.dtype([("freq", "<f8"), ("g", "<f8", (3, nz, ny, nx))])


def descriptor_to_dict(desc: Descriptor) -> dict:
    if isinstance(desc, Homogeneous):
        return {"kind": "homogeneous", "eps": desc.eps}
    if isinstance(desc, SlabStack):
        return {
            "kind": "slab-stack",
            "axis": desc.axis,
            "layers": [{"thickness": l.thickness, "eps": l.eps} for l in desc.layers],
        }
    if isinstance(desc, Sphere):
        return {
            "kind": "sphere",
            "center": list(desc.center),
            "radius": desc.radius,
            "eps_in": desc.eps_in,
            "eps_out": desc.eps_out,
        }
    if isinstance(desc, EmptyCavity):
        return {
            "kind": "empty-cavity",
            "host": descriptor_to_dict(desc.host),
            "centers": [list(c) for c in desc.centers],
            "radius": desc.radius,
        }
    raise ProfileError(f"cannot serialize descriptor {type(desc).__name__}")


def descriptor_from_dict(data: dict) -> Descriptor:
    kind = data.get("kind")
    if kind == "homogeneous":
        return Homogeneous(eps=float(data["eps"]))
    if kind == "slab-stack":
        layers = tuple(Layer(float(l["thickness"]), float(l["eps"])) for l in data["layers"])
        return SlabStack(layers=layers, axis=int(data.get("axis", 0)))
    if kind == "sphere":
        return Sphere(
            center=tuple(float(x) for x in data["center"]),
            radius=float(data["radius"]),
            eps_in=float(data["eps_in"]),
            eps_out=float(data["eps_out"]),
        )
    if kind == "empty-cavity":
        return EmptyCavity(
            host=descriptor_from_dict(data["host"]),
            centers=tuple(tuple(float(x) for x in c) for c in data["centers"]),
            radius=float(data["radius"]),
        )
    raise ProfileError(f"unknown descriptor kind {kind!r}")


def _sidecar_path(path) -> Path:
    return Path(str(path) + ".json")


def write_atomic(path: Path, data: bytes):
    """Write through a uniquely named temporary file in the target directory.

    The rename is atomic, so readers see the old file or the new one, and
    concurrent writers into one directory never share a temporary file.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_bank(bank: ModeBank, path) -> None:
    """Serialize a bank; requires a descriptor-backed medium."""
    path = Path(path)
    desc = bank.medium.descriptor
    if desc is None:
        raise ProfileError("bank medium carries no descriptor; cannot persist")
    grid = bank.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        *grid.dims,
        grid.spacing,
        len(bank),
        _VARIANT_CODE[bank.variant],
    )
    body = np.empty(len(bank), _body_dtype(grid))
    body["freq"] = bank.frequencies
    body["g"] = bank.modes_g.transpose(0, 1, 4, 3, 2)
    write_atomic(path, header + body.tobytes())

    sidecar = {
        "format": "epsmodes-bank-sidecar",
        "version": VERSION,
        "medium": descriptor_to_dict(desc),
        "mu": descriptor_to_dict(bank.medium.mu_descriptor)
        if bank.medium.mu_descriptor is not None
        else None,
        "gram_defect": bank.gram_defect,
        "residuals": [float(r) for r in bank.residuals],
        "complete": bank.complete,
        "seed": bank.seed,
    }
    write_atomic(
        _sidecar_path(path),
        (json.dumps(sidecar, indent=2, sort_keys=True) + "\n").encode(),
    )


def load_bank(path) -> ModeBank:
    """Load a bank saved by :func:`save_bank`; bit-exact round trip."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise BankFileError(
            f"truncated header: {len(raw)} bytes, need {_HEADER.size}", offset=len(raw)
        )
    magic, version, nx, ny, nz, spacing, n_modes, variant_code = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BankFileError(f"bad magic {magic!r} at offset 0", offset=0)
    if version != VERSION:
        raise BankFileError(f"unsupported version {version} at offset 4", offset=4)
    if variant_code not in _VARIANT_NAME:
        raise BankFileError(f"unknown variant code {variant_code} at offset 32", offset=32)
    grid = Grid((nx, ny, nz), spacing)
    body_dtype = _body_dtype(grid)
    per_mode = body_dtype.itemsize
    expect = _HEADER.size + n_modes * per_mode
    if len(raw) != expect:
        raise BankFileError(
            f"body length {len(raw) - _HEADER.size} does not match "
            f"{n_modes} modes of {per_mode} bytes each",
            offset=min(len(raw), expect),
        )

    sidecar_file = _sidecar_path(path)
    if not sidecar_file.exists():
        raise BankFileError(f"missing sidecar {sidecar_file}")
    try:
        sidecar = json.loads(sidecar_file.read_text())
        desc = descriptor_from_dict(sidecar["medium"])
        mu_desc = (
            descriptor_from_dict(sidecar["mu"]) if sidecar.get("mu") is not None else None
        )
        residuals = np.asarray(sidecar["residuals"], dtype=np.float64)
        gram_defect = float(sidecar["gram_defect"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise BankFileError(f"malformed sidecar {sidecar_file}: {exc!r}") from exc
    if residuals.shape != (n_modes,):
        raise BankFileError(
            f"sidecar {sidecar_file} holds {residuals.size} residuals for "
            f"{n_modes} modes"
        )
    medium = build_profile(desc, grid, mu_desc)

    body = np.frombuffer(raw, body_dtype, count=n_modes, offset=_HEADER.size)
    return ModeBank(
        medium=medium,
        variant=_VARIANT_NAME[variant_code],
        frequencies=np.array(body["freq"], dtype=np.float64),
        modes_g=np.array(body["g"].transpose(0, 1, 4, 3, 2), dtype=np.float64, order="C"),
        residuals=residuals,
        gram_defect=gram_defect,
        complete=bool(sidecar.get("complete", False)),
        seed=sidecar.get("seed"),
    )
