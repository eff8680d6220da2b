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
32       u8 magnetic flag: 1 when the medium has mu, else 0
33       per mode: f64 frequency, then 3 * ncells f64 g-field
         components, each component raveled x-fastest
=======  ======================================================

A JSON sidecar (same path plus ``.json``) stores the medium and mu
descriptors, Gram/residual metadata and the solver seed.  A sidecar of
another format or version, one that lacks a key, or one holding a
descriptor that :mod:`epsmodes.medium` refuses is refused, and so is a bank
whose magnetic flag disagrees with its sidecar's mu.  Round trips are
bit-exact: the g fields, the only form a bank holds, are read back bitwise
into the same C-ordered layout the solver produces, and eps and mu are
rebuilt from the descriptors.
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
from .medium import build_profile, descriptor_from_dict, descriptor_to_dict
from .modes import ModeBank

MAGIC = b"QMB1"
VERSION = 1
SIDECAR_FORMAT = "epsmodes-bank-sidecar"
_HEADER = struct.Struct("<4sI3IdIB")


def _body_dtype(grid: Grid) -> np.dtype:
    """One mode record: the frequency, then g with each component x-fastest."""
    nx, ny, nz = grid.dims
    return np.dtype([("freq", "<f8"), ("g", "<f8", (3, nz, ny, nx))])


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
    """Serialize a bank; requires a descriptor-backed medium (and mu)."""
    path = Path(path)
    m = bank.medium
    if m.descriptor is None or (m.mu is not None and m.mu_descriptor is None):
        raise ProfileError("bank medium carries no eps or mu descriptor; cannot persist")
    grid = bank.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        *grid.dims,
        grid.spacing,
        len(bank),
        int(m.mu is not None),
    )
    body = np.empty(len(bank), _body_dtype(grid))
    body["freq"] = bank.frequencies
    body["g"] = bank.modes_g.transpose(0, 1, 4, 3, 2)
    write_atomic(path, header + body.tobytes())

    sidecar = {
        "format": SIDECAR_FORMAT,
        "version": VERSION,
        "medium": descriptor_to_dict(m.descriptor),
        "mu": None if m.mu is None else descriptor_to_dict(m.mu_descriptor),
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
    magic, version, nx, ny, nz, spacing, n_modes, magnetic = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise BankFileError(f"bad magic {magic!r} at offset 0", offset=0)
    if version != VERSION:
        raise BankFileError(f"unsupported version {version} at offset 4", offset=4)
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
        if (sidecar["format"], sidecar["version"]) != (SIDECAR_FORMAT, VERSION):
            raise BankFileError(
                f"sidecar {sidecar_file} has format {sidecar['format']!r} version "
                f"{sidecar['version']!r}, not {SIDECAR_FORMAT!r} version {VERSION}"
            )
        residuals = np.asarray(sidecar["residuals"], dtype=np.float64)
        gram_defect = float(sidecar["gram_defect"])
        complete, seed = sidecar["complete"], sidecar["seed"]
        if not isinstance(complete, bool) or not (seed is None or type(seed) is int):
            raise BankFileError(
                f"sidecar {sidecar_file} has complete={complete!r} and seed={seed!r}, "
                "not a boolean and an integer or null"
            )
        if residuals.shape != (n_modes,):
            raise BankFileError(
                f"sidecar {sidecar_file} holds {residuals.size} residuals for "
                f"{n_modes} modes"
            )
        mu = sidecar["mu"]
        if magnetic != int(mu is not None):
            raise BankFileError(
                f"magnetic flag {magnetic} at offset 32 disagrees with sidecar mu {mu!r}",
                offset=32,
            )
        # the medium's own rules judge the descriptors: a fault is the sidecar's
        medium = build_profile(
            descriptor_from_dict(sidecar["medium"]),
            grid,
            None if mu is None else descriptor_from_dict(mu),
        )
    except (ValueError, KeyError, TypeError, AttributeError, ProfileError) as exc:
        raise BankFileError(f"malformed sidecar {sidecar_file}: {exc!r}") from exc

    body = np.frombuffer(raw, body_dtype, count=n_modes, offset=_HEADER.size)
    return ModeBank(
        medium=medium,
        frequencies=np.array(body["freq"], dtype=np.float64),
        modes_g=np.array(body["g"].transpose(0, 1, 4, 3, 2), dtype=np.float64, order="C"),
        residuals=residuals,
        gram_defect=gram_defect,
        complete=complete,
        seed=seed,
    )
