"""The generator must match the published SplitMix64 algorithm bit-for-bit.

Expected values were produced by an independent C implementation of
SplitMix64 / FNV-1a (canonical constants), compiled and run separately;
they are frozen here so any platform or refactor drift is caught.
"""

import pytest

from cellstage._rng import SplitMix64, fnv1a64, mix64, property_stream

# C reference: first four outputs from the given initial states.
REFERENCE_STREAMS = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
    ],
    0xDEADBEEFCAFEF00D: [
        10384543611796878027,
        12091642062541636903,
        1852118247650364724,
        16692712714918790034,
    ],
}


def test_matches_c_reference_outputs():
    for state, expected in REFERENCE_STREAMS.items():
        gen = SplitMix64(state)
        assert [gen.next_u64() for _ in range(4)] == expected


def test_fnv1a64_matches_c_reference():
    assert fnv1a64("THM1_CAMERA_STAGE") == 11260753521487222094
    assert fnv1a64("abc") == 16654208175385433931


def test_mix64_matches_c_reference():
    assert mix64(42) == 12058926934050108962


def test_property_stream_construction():
    # Stream state is mix64(seed) XOR fnv1a64(id); C reference values.
    stream = property_stream(42, "THM1_CAMERA_STAGE")
    assert [stream.next_u64() for _ in range(3)] == [
        11528433932542688059,
        556808390831162650,
        2364083717899952338,
    ]
    stream = property_stream(42, "THM1_CAMERA_STAGE")
    assert [f"{stream.next_float():.17g}" for _ in range(3)] == [
        "0.62495765575091944",
        "0.030184643349865148",
        "0.12815723514423683",
    ]


def test_streams_decorrelated_per_property():
    a = property_stream(1, "THM1_CAMERA_STAGE")
    b = property_stream(1, "THM2_IMAGE_CAMERA")
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_float_range_and_determinism():
    gen = SplitMix64(7)
    values = [gen.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    again = SplitMix64(7)
    assert values == [again.next_float() for _ in range(1000)]


def test_uniform_bounds():
    gen = SplitMix64(3)
    assert all(-2.0 <= gen.uniform(-2.0, 5.0) <= 5.0 for _ in range(1000))


def test_log_uniform_bounds():
    gen = SplitMix64(3)
    values = [gen.log_uniform(0.1, 100.0) for _ in range(1000)]
    assert all(0.1 <= v <= 100.0 for v in values)
    # Log-uniform: roughly a third of draws per decade, not mass at the top.
    below_one = sum(v < 1.0 for v in values)
    assert 200 < below_one < 470


def test_uniform_open_low_excludes_zero():
    gen = SplitMix64(11)
    values = [gen.uniform_open_low(10.0) for _ in range(1000)]
    assert all(0.0 < v <= 10.0 for v in values)


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63])
def test_masking_keeps_64_bits(seed):
    gen = SplitMix64(seed)
    assert all(0 <= gen.next_u64() < 2**64 for _ in range(100))



@pytest.mark.parametrize("n", [0, 1, 7, 1000, 2**64 + 5])
def test_skipping_n_draws_jumps_the_state(n):
    # The stream starts near 0.2 * 2^64 and gamma is about 0.62 * 2^64, so
    # every jump from n = 2 on wraps past 2^64; n = 2^64 + 5 is the jump
    # of n = 5, since 2^64 * gamma is 0 mod 2^64.
    seed, property_id = 2**64 - 1, "INTEGRATOR_VS_ANALYTIC"
    walked = property_stream(seed, property_id)
    for _ in range(n % 2**64):
        walked.next_u64()
    jumped = property_stream(seed, property_id, n)
    assert [jumped.next_u64() for _ in range(4)] == [walked.next_u64() for _ in range(4)]
