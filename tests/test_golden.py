"""Bitwise golden digests: the state after three full cycles from fixed random
starts, and the start state of every initial condition.

The solver uses only + - * / sqrt max abs, so the cycle digests do not depend
on libm or on the SIMD build; the initial conditions also call numpy's sin,
cos and exp, so theirs pin those too.  A change that claims to keep behaviour
must leave every digest as it is; a digest is never regenerated to make a
refactor pass.  The 64^3 double-precision case spans several cache blocks of
the fluid sweep and both slabs, and the 64x16x32 case has unequal axes in
every orientation.  The start states are built in k-slabs; every one must
also come out the same when each slab is a single plane.
"""

import hashlib

import pytest

from tvdmhd import GridShape, SchemeParams, ic, init_condition, run

from conftest import random_state, state_bytes

SEED = 7
CYCLES = 3

GOLDEN = [
    ((16, 16, 16), "double", 1,
     "e34cb21e72c4e1feba76791bff14cef9040049247ad15ddcfc8c9a45aedb7309"),
    ((32, 32, 32), "single", 2,
     "a2778875735157484e6aa945f46a8dae13d0fb09da106d981936ad1ab2499d67"),
    ((32, 32, 32), "double", 2,
     "101d33af80f8640735694cb161716ba0f9cbb3c3b3b994835ba102894d95f285"),
    ((64, 64, 64), "double", 2,
     "045f6cbcd20bf780dfa77c4ee022aea62c2070b03ba71c0068d3700d33100f95"),
    ((64, 16, 32), "single", 2,
     "3679d6ffba434318e86187c3f93103c4a056fc2c06febcedb8ac8cbe4f81cdfb"),
]


@pytest.mark.parametrize("dims, precision, workers, digest", GOLDEN,
                         ids=[f"{'x'.join(map(str, d))}-{p}-w{w}" for d, p, w, _ in GOLDEN])
def test_state_digest_after_three_cycles(dims, precision, workers, digest):
    params = SchemeParams(precision=precision)
    state = random_state(GridShape(*dims), params, seed=SEED)
    run(state, params, n_cycles=CYCLES, workers=workers)
    assert hashlib.sha256(state_bytes(state)).hexdigest() == digest


# Non-default options per kind; every value is off its default and most are
# not representable in single precision.
IC_OPTIONS = {
    "uniform": dict(rho=2.5, p=0.75, v=(0.3, -0.2, 0.1), b=(0.4, -0.1, 0.25)),
    "advect_pulse": dict(profile="sine", amplitude=0.3, velocity=-0.5),
    "sod_x": dict(left=(2.0, 3.0), right=(0.5, 0.2)),
    "brio_wu_x": dict(b_normal=0.5, b_left=0.8, b_right=-0.6),
    "solenoidal_random": dict(seed=5, modes=2, b_amplitude=0.5, amplitude=0.1,
                              mean_velocity=(0.0, 0.0, 0.2)),
}

# (kind, (n1, n2, n3, dx), precision, options, sha256 of the state block).
IC_GOLDEN = [
    ("uniform", (16, 12, 8, 0.25), "single", "defaults",
     "8bf7e66e02968ac75f863005bb5f79bd0911706c04104eb50a5f9fbda2a3941b"),
    ("uniform", (16, 12, 8, 0.25), "double", "defaults",
     "2b5fca58dd9c27da0d04aa319d9bbf57085d9f4ff31af91748fd35b54dda0207"),
    ("advect_pulse", (16, 12, 8, 0.25), "single", "defaults",
     "6b21f8f5281f1cdd5d0cf8bcca08ac810b2dfbf217cd502ec8feb7069a716688"),
    ("advect_pulse", (16, 12, 8, 0.25), "double", "defaults",
     "307b3e54e50c40af1fc05b1f28a9288d4492bfa4ce5b7dce52e98ac2c5d71493"),
    ("sod_x", (16, 12, 8, 0.25), "single", "defaults",
     "e64cd9d3fc5aa3378af9c043905fce883253876750dc36ae9ded03acf62311e9"),
    ("sod_x", (16, 12, 8, 0.25), "double", "defaults",
     "0e4261a16f2fb7f5f5dc06c9fb15a591f70330c5ab72964edb2e2fe8b9277ddc"),
    ("brio_wu_x", (16, 12, 8, 0.25), "single", "defaults",
     "d55c0d03258aca4f26a2d8b952b4d4320ff660ec28ffa2cf8e5ce08ad0ea1a5d"),
    ("brio_wu_x", (16, 12, 8, 0.25), "double", "defaults",
     "84cab5ff4492f3aefd201ea02c3fcc49a2c46482621c9f7e649d255e8e575be9"),
    ("solenoidal_random", (16, 12, 8, 0.25), "single", "defaults",
     "33781b09dc56e75f96569280dc3d8769e9136b483e2152aba16bada7bc13dea6"),
    ("solenoidal_random", (16, 12, 8, 0.25), "double", "defaults",
     "21ce6fee90c7835e7ca21be49298292713abae7ffb9f2946d12cb907d8dd800e"),
    ("orszag_tang_xy", (16, 12, 8, 0.25), "single", "defaults",
     "eb082c27fa444e15a19ceef989d12d78708e3039933a7433c0e5e87ff6cae3f5"),
    ("orszag_tang_xy", (16, 12, 8, 0.25), "double", "defaults",
     "e20c155bb695466388ee8fef92aa0717b5ad8a4bc94293a93b795fd1a800f1cc"),
    ("uniform", (32, 32, 32, 1.0), "single", "defaults",
     "b8cf2aaca751a8c60165fde894c3b506ff8d129e8cfa679e865e24bdcc007272"),
    ("uniform", (32, 32, 32, 1.0), "double", "defaults",
     "043e60573b6aeee6e513bbef8cf2ba90e508c1959c2e88df774f8061cfa7a50f"),
    ("advect_pulse", (32, 32, 32, 1.0), "single", "defaults",
     "eb8c086b591e1e8bdcbbfcef9ab04ac729d3125074ec193e2f43efd6051aab2c"),
    ("advect_pulse", (32, 32, 32, 1.0), "double", "defaults",
     "0e46fc46dce70d12172230bcce86c02321c69dc2a9874f1b500352fa380e7a35"),
    ("sod_x", (32, 32, 32, 1.0), "single", "defaults",
     "91cb47d7642342453933630a4585d43516b5167321e52aa6aee74b4098cd8ffe"),
    ("sod_x", (32, 32, 32, 1.0), "double", "defaults",
     "f45fd54e641d893742e70a3f6856cf868ccf8de784ed51ebc211f7c59f745136"),
    ("brio_wu_x", (32, 32, 32, 1.0), "single", "defaults",
     "736804541b5de0a8c5cf2862c658925e73d38b7624dce69a4d71ff97dc8108b9"),
    ("brio_wu_x", (32, 32, 32, 1.0), "double", "defaults",
     "3c9beb7edd26c3baa8c8966fc65bb8cfa1ae37e216965a2f3f9168139b8d8c12"),
    ("solenoidal_random", (32, 32, 32, 1.0), "single", "defaults",
     "ba1cabe94bd776357fd1a1904e6cbf11a28d4e948002a399fe162d47b63ccd43"),
    ("solenoidal_random", (32, 32, 32, 1.0), "double", "defaults",
     "234445610de78a5851b184fffb744bb8eb7162d24b09b5281b440efea2554c52"),
    ("orszag_tang_xy", (32, 32, 32, 1.0), "single", "defaults",
     "42e3fe00f854a6d6fdcd7c4e7e8a8ba512f6a39108c0e8f0dc802c36f20c620e"),
    ("orszag_tang_xy", (32, 32, 32, 1.0), "double", "defaults",
     "be63eb85fd464409c76f8db86658c93c10d6fb99f3405075733f985736e6130a"),
    ("uniform", (16, 12, 8, 0.25), "single", "options",
     "40cc7258bd02ea61a561a530ffb6d882bbac1ff9f1aa1f8c7eee0502b484b39c"),
    ("uniform", (16, 12, 8, 0.25), "double", "options",
     "8901c43861ac265832b6303ffb6af9d8643b544d21ea7145fad36febd00cec5e"),
    ("advect_pulse", (16, 12, 8, 0.25), "single", "options",
     "939f67471e835d9f95806a2ed0fa0e0cb5dd185ace04f11dee4380896fdec667"),
    ("advect_pulse", (16, 12, 8, 0.25), "double", "options",
     "02059fab48c6b123eb640afc542f0fe3594f72784b4791cd17812cbc6fac4e72"),
    ("sod_x", (16, 12, 8, 0.25), "single", "options",
     "4deb61598da37319d002b2e802fc7764bca31b15ae4df416d0017bebb8d9cbcd"),
    ("sod_x", (16, 12, 8, 0.25), "double", "options",
     "e648edfc0b978282ed5f90085e1dad82689d73a1f1b558a0c3d6c11aa5ebd0fd"),
    ("brio_wu_x", (16, 12, 8, 0.25), "single", "options",
     "58f291aced6335ca7ce080a7cf24a1f44b82dd793c11ec023da7521cece58afe"),
    ("brio_wu_x", (16, 12, 8, 0.25), "double", "options",
     "4661fd3290860835763f27b17b1b02e1b05704962c8c5fed3f2e5d4c876bf94e"),
    ("solenoidal_random", (16, 12, 8, 0.25), "single", "options",
     "671fc58eb964987b79c49be1ba1ec444ffa595f3e774457b52b9f799c5becbe0"),
    ("solenoidal_random", (16, 12, 8, 0.25), "double", "options",
     "6f70d6195e38059db57da32a9e1795ab5d8d09b7bd1f4b74f48f7eca62adda2e"),
    # Several slabs at the default slab size: 64^3 double is four slabs of 16
    # planes; 48x40x36 is one slab of 34 planes and a partial one of 2.
    ("solenoidal_random", (64, 64, 64, 1.0), "double", "defaults",
     "2f8694528e7aeb2c609371e54dd7036be0e63fcf58f67ba96ae1f56f3258123d"),
    ("solenoidal_random", (48, 40, 36, 0.5), "single", "options",
     "b14ba4aafca8fc3f70bbee83b89af4fa57a0eb1c5fb3dd56b15603c0e4a36049"),
    ("orszag_tang_xy", (48, 40, 36, 0.5), "single", "defaults",
     "acf619d632bd5eed6a273d54d069446fef5c191558fa8e0d9c95e2ece0837ce0"),
    # Seed 19: 17 of its 24 modes have a zero wavenumber; slabs of 45 and 7 planes.
    ("solenoidal_random", (40, 36, 52, 0.5), "double", "seed19",
     "da84d6b4fe677d9b5facb07918e3d855d6c3e2cfdaffe0fbdae93de9aa622544"),
]


IC_IDS = [f"{k}-{'x'.join(map(str, d[:3]))}-dx{d[3]}-{p}-{o}" for k, d, p, o, _ in IC_GOLDEN]


def _ic_digest(kind, dims, precision, options):
    opts = {"defaults": {}, "options": IC_OPTIONS.get(kind), "seed19": dict(seed=19)}[options]
    state = init_condition(kind, GridShape(*dims), SchemeParams(precision=precision), **opts)
    return hashlib.sha256(state_bytes(state)).hexdigest()


@pytest.mark.parametrize("kind, dims, precision, options, digest", IC_GOLDEN, ids=IC_IDS)
def test_initial_condition_digest(kind, dims, precision, options, digest):
    assert _ic_digest(kind, dims, precision, options) == digest


@pytest.mark.parametrize("kind, dims, precision, options, digest", IC_GOLDEN, ids=IC_IDS)
def test_initial_condition_digest_with_one_plane_slabs(monkeypatch, kind, dims, precision,
                                                       options, digest):
    monkeypatch.setattr(ic, "_SLAB_BYTES", 1)
    assert _ic_digest(kind, dims, precision, options) == digest


@pytest.mark.parametrize("kind, dims, precision, options, digest", IC_GOLDEN, ids=IC_IDS)
def test_initial_condition_digest_with_three_plane_slabs(monkeypatch, kind, dims, precision,
                                                         options, digest):
    # 40x36x52 ends on a one-plane slab after 17 of three planes: the curl's
    # carried plane meets an empty evaluation, potential(52, 52).
    monkeypatch.setattr(ic, "_SLAB_BYTES", 3 * 8 * dims[0] * dims[1])
    assert _ic_digest(kind, dims, precision, options) == digest
