"""Material data, Lame derivation, field I/O, and generator tests."""

import re

import numpy as np
import pytest

from msbiot.medium import (PoroelasticMedium, derive_lame, build_medium,
                           load_field, save_field, generate_high_contrast)


def test_derive_lame_values():
    lam, mu = derive_lame(np.array([1.0]), 0.2)
    assert np.isclose(lam[0], 0.2 / (1.2 * 0.6))
    assert np.isclose(mu[0], 1.0 / 2.4)
    # cellwise ratio lambda/mu = 2 eta / (1 - 2 eta) = 2/3 at eta = 0.2
    lam, mu = derive_lame(np.linspace(1, 5, 7), 0.2)
    assert np.allclose(lam / mu, 2.0 / 3.0)


def test_derive_lame_homogeneous_degree_one():
    E = np.array([1.0, 3.0, 10.0])
    lam1, mu1 = derive_lame(E, 0.3)
    lam2, mu2 = derive_lame(4.0 * E, 0.3)
    assert np.allclose(lam2, 4.0 * lam1)
    assert np.allclose(mu2, 4.0 * mu1)


def test_derive_lame_validation():
    with pytest.raises(ValueError):
        derive_lame(np.array([0.0]), 0.2)
    with pytest.raises(ValueError):
        derive_lame(np.array([1.0]), 0.5)
    with pytest.raises(ValueError):
        derive_lame(np.array([1.0]), -1.0)


def test_medium_validation():
    ones = np.ones(4)
    with pytest.raises(ValueError):
        PoroelasticMedium(-ones, ones, 0.2, ones, 0.9, 1.0)
    with pytest.raises(ValueError):
        PoroelasticMedium(ones, ones, 0.2, np.ones(5), 0.9, 1.0)


def test_build_medium_defaults():
    kappa = np.array([1.0, 1e4, 1.0, 1e4])
    med = build_medium(kappa)
    assert med.eta == 0.2 and med.alpha == 0.9 and med.nu == 1.0
    assert np.array_equal(med.E, kappa)
    # Biot modulus: 1 in background, 10 in inclusions
    assert np.array_equal(med.M, [1.0, 10.0, 1.0, 10.0])
    # homogeneous kappa: M is 1 everywhere
    assert np.all(build_medium(np.ones(4)).M == 1.0)


def test_field_roundtrip(tmp_path):
    path = tmp_path / "field.txt"
    vals = np.exp(np.linspace(0, 3, 16))
    save_field(path, vals)
    back = load_field(path)
    assert np.array_equal(back, vals)  # 17 digits: bit-identical


def test_field_header_shape(tmp_path):
    path = tmp_path / "field.txt"
    save_field(path, np.ones(12), rows=3, cols=4)
    assert open(path).readline().strip() == "3 4"


def test_load_field_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n1 2 3\n")
    with pytest.raises(ValueError):
        load_field(bad)
    short = tmp_path / "short.txt"
    short.write_text("2 2\n1.0 2.0 3.0\n")
    with pytest.raises(ValueError):
        load_field(short)
    zero = tmp_path / "zero.txt"
    zero.write_text("1 2\n1.0 0.0\n")
    with pytest.raises(ValueError):
        load_field(zero)
    # a non-finite or non-numeric entry is rejected, naming the file
    for name, entry in (("nan", "nan"), ("inf", "inf"), ("word", "abc")):
        path = tmp_path / f"{name}.txt"
        path.write_text(f"2 2\n1.0 {entry} 3.0 4.0\n")
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_field(path)


def test_generator_binary_and_deterministic():
    for pattern in ("blobs", "channels"):
        f = generate_high_contrast(80, pattern, 1e4, seed=0)
        assert set(np.unique(f)) == {1.0, 1e4}
        frac = np.mean(f > 1.0)
        assert 0.0 < frac < 1.0
        again = generate_high_contrast(80, pattern, 1e4, seed=0)
        assert np.array_equal(f, again)
    assert not np.array_equal(generate_high_contrast(80, "blobs", 1e4, 0),
                              generate_high_contrast(80, "blobs", 1e4, 5))


def test_generator_contrast_one_homogeneous():
    assert np.all(generate_high_contrast(40, "blobs", 1.0) == 1.0)


def test_generator_validation():
    with pytest.raises(ValueError):
        generate_high_contrast(40, "blobs", 0.5)
    with pytest.raises(ValueError):
        generate_high_contrast(40, "spiral")


def test_generator_inclusions_span_multiple_coarse_blocks():
    # each connected inclusion patch must intersect >= 2 coarse blocks
    # for coarse sizes up to N = 25 (checked on the block id sets)
    n = 100
    f = (generate_high_contrast(n, "blobs", 2.0) > 1.0).reshape(n, n)
    for N in (10, 25):
        m = n // N
        ix, iy = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        block = (iy // m) * N + (ix // m)
        # flood-fill connected components (4-neighbor)
        seen = np.zeros_like(f, dtype=bool)
        for sy, sx in zip(*np.nonzero(f)):
            if seen[sy, sx]:
                continue
            stack, comp = [(sy, sx)], []
            seen[sy, sx] = True
            while stack:
                y, x = stack.pop()
                comp.append((y, x))
                for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < n and 0 <= xx < n and f[yy, xx] \
                            and not seen[yy, xx]:
                        seen[yy, xx] = True
                        stack.append((yy, xx))
            blocks = {block[y, x] for y, x in comp}
            assert len(blocks) >= 2
