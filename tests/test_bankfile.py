import dataclasses
import json
import struct

import numpy as np
import pytest

from epsmodes.bankfile import load_bank, save_bank
from epsmodes.errors import BankFileError, ProfileError
from epsmodes.lattice import Grid
from epsmodes.medium import Homogeneous, Layer, MediumProfile, SlabStack, build_profile
from epsmodes.modes import QOperator, solve_modes


@pytest.fixture(scope="module")
def bank():
    grid = Grid((6, 6, 6), 0.5)
    medium = build_profile(Homogeneous(2.0), grid)
    return solve_modes(QOperator(medium), 8, tol=1e-9, seed=3)


def test_round_trip_bit_exact(bank, tmp_path):
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    loaded = load_bank(path)
    assert np.array_equal(loaded.frequencies, bank.frequencies)
    assert np.array_equal(loaded.modes_g, bank.modes_g)
    for i in range(len(bank)):
        assert np.array_equal(loaded.mode_h(i).values, bank.mode_h(i).values)
    assert loaded.grid == bank.grid
    assert loaded.gram_defect == bank.gram_defect
    assert np.array_equal(loaded.residuals, bank.residuals)


def test_save_load_save_is_byte_identical(bank, tmp_path):
    p1 = tmp_path / "a.qmb"
    p2 = tmp_path / "b.qmb"
    save_bank(bank, p1)
    save_bank(load_bank(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert (
        p1.with_name("a.qmb.json").read_bytes() == p2.with_name("b.qmb.json").read_bytes()
    )


def test_corrupted_magic_names_offset(bank, tmp_path):
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    raw = bytearray(path.read_bytes())
    raw[1] ^= 0xFF
    path.write_bytes(raw)
    with pytest.raises(BankFileError) as err:
        load_bank(path)
    assert err.value.offset == 0
    assert "offset 0" in str(err.value)


def test_bad_version_rejected(bank, tmp_path):
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(raw)
    with pytest.raises(BankFileError) as err:
        load_bank(path)
    assert err.value.offset == 4


def test_truncated_file_rejected(bank, tmp_path):
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 17])
    with pytest.raises(BankFileError):
        load_bank(path)


@pytest.mark.parametrize("flag, mu", [(1, None), (0, {"kind": "homogeneous", "eps": 4.0})],
                         ids=["flag-without-mu", "mu-without-flag"])
def test_magnetic_flag_must_match_sidecar_mu(bank, tmp_path, flag, mu):
    # a bank solved while mu was ignored carries flag 0 next to a sidecar mu
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    raw = bytearray(path.read_bytes())
    raw[32] = flag
    path.write_bytes(raw)
    sidecar = path.with_name("bank.qmb.json")
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "mu": mu}))
    with pytest.raises(BankFileError) as err:
        load_bank(path)
    assert err.value.offset == 32
    assert "offset 32" in str(err.value)


def test_magnetic_bank_round_trip(tmp_path):
    grid = Grid((4, 4, 4))
    medium = build_profile(Homogeneous(1.0), grid, mu_desc=Homogeneous(4.0))
    bank = solve_modes(QOperator(medium), 4, tol=1e-9)
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    assert path.read_bytes()[32] == 1
    loaded = load_bank(path)
    assert np.array_equal(loaded.medium.mu, medium.mu)
    assert np.array_equal(loaded.frequencies, bank.frequencies)
    # a mu array without a descriptor cannot be written back
    bare = MediumProfile(grid, medium.eps, medium.mu, descriptor=medium.descriptor)
    with pytest.raises(ProfileError):
        save_bank(dataclasses.replace(bank, medium=bare), tmp_path / "bare.qmb")


def test_missing_sidecar_rejected(bank, tmp_path):
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    path.with_name("bank.qmb.json").unlink()
    with pytest.raises(BankFileError):
        load_bank(path)


def _without(key):
    return lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != key})


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"gram_defect"', '"gram_defect_"'),
        lambda text: json.dumps({**json.loads(text), "residuals": [0.0]}),
        lambda text: json.dumps({**json.loads(text), "format": "not-a-bank"}),
        lambda text: json.dumps({**json.loads(text), "version": 99}),
        _without("mu"),
        _without("complete"),
        _without("seed"),
        lambda text: json.dumps({**json.loads(text), "complete": "false"}),
        lambda text: json.dumps({**json.loads(text), "seed": "3"}),
        lambda text: json.dumps({**json.loads(text),
                                 "medium": {"kind": "homogeneous", "eps": -2.0}}),
        lambda text: json.dumps({**json.loads(text), "medium": {"kind": "crystal"}}),
    ],
    ids=["invalid-json", "missing-key", "residual-count", "wrong-format", "wrong-version",
         "missing-mu", "missing-complete", "missing-seed", "string-complete", "string-seed",
         "medium-refused", "unknown-kind"],
)
def test_malformed_sidecar_rejected(bank, tmp_path, corrupt):
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    sidecar = path.with_name("bank.qmb.json")
    sidecar.write_text(corrupt(sidecar.read_text()))
    with pytest.raises(BankFileError):
        load_bank(path)


def test_descriptor_required(tmp_path, rng):
    grid = Grid((4, 4, 4))
    medium = MediumProfile(grid, 1.0 + rng.random((3,) + grid.dims), None)
    from epsmodes.modes import dense_transverse_spectrum

    bank = dense_transverse_spectrum(QOperator(medium), include_zero_modes=False)
    with pytest.raises(ProfileError):
        save_bank(bank, tmp_path / "no.qmb")


def test_slab_descriptor_round_trip(tmp_path):
    grid = Grid((16, 2, 2), 1.0)
    medium = build_profile(SlabStack((Layer(6.0, 1.0), Layer(2.0, 13.0)), axis=0), grid)
    bank = solve_modes(QOperator(medium), 4, tol=1e-7, seed=0)
    path = tmp_path / "slab.qmb"
    save_bank(bank, path)
    loaded = load_bank(path)
    assert np.array_equal(loaded.medium.eps, bank.medium.eps)
    for i in range(len(bank)):
        assert np.array_equal(loaded.mode_h(i).values, bank.mode_h(i).values)


def pack_body_per_mode(bank):
    """The bank body written one mode and one component at a time."""
    chunks = []
    for i in range(len(bank)):
        chunks.append(struct.pack("<d", float(bank.frequencies[i])))
        for a in range(3):
            chunks.append(bank.modes_g[i, a].ravel(order="F").tobytes())
    return b"".join(chunks)


def test_body_matches_per_mode_packing(tmp_path):
    # three distinct axis lengths, so a transposed layout cannot pass
    grid = Grid((5, 4, 3), 0.7)
    bank = solve_modes(QOperator(build_profile(Homogeneous(2.0), grid)), 5, tol=1e-8, seed=1)
    path = tmp_path / "bank.qmb"
    save_bank(bank, path)
    raw = path.read_bytes()
    header_size = len(raw) - len(bank) * (8 + 3 * grid.ncells * 8)
    assert header_size == 33
    assert raw[header_size:] == pack_body_per_mode(bank)
    loaded = load_bank(path)
    assert loaded.modes_g.flags.c_contiguous and loaded.modes_g.flags.writeable
    assert np.array_equal(loaded.modes_g, bank.modes_g)
    assert np.array_equal(loaded.frequencies, bank.frequencies)
