"""Tests of the benchmark's reference computations and output checks.

    python3 bench/test_reference.py      # or: python3 -m pytest bench/test_reference.py

The reference must agree with the published SplitMix64 outputs, and every
output check must pass a right answer and reject a deliberately wrong one.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference as ref  # noqa: E402


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except ref.CheckFailed:
        return True
    return False


def test_splitmix64_published_outputs():
    assert tuple(ref.splitmix64(0, 3)) == ref.PUBLISHED_SEED0
    ref.self_check()


def test_block_form_matches_scalar_form():
    for seed in (0, 7, 2**63 + 5, ref.MASK64):
        assert ref.splitmix64_block(seed, 300).tolist() == ref.splitmix64(seed, 300)


def test_mask_size_rule():
    for c in (1, 2, 10, 100):
        for seed in (3, 99):
            bound = (1 << 64) // c
            want = sum(1 for v in ref.splitmix64(seed, 500) if v < bound)
            assert ref.mask_size(seed, c, 500) == want
    assert ref.mask_size(5, 1, 123) == 123


def test_mean_model_check():
    rng = np.random.default_rng(1)
    n, N, gamma, T = 6, 50, 0.1, 7
    targets, x0 = rng.normal(size=(n, N)), rng.normal(size=(n, N))
    b_bar = targets.mean(axis=0)
    mean = b_bar + (1 - gamma) ** T * (x0.mean(axis=0) - b_bar)
    spread = rng.normal(size=(n, N))
    models = mean + spread - spread.mean(axis=0)
    ref.check_mean_model(models, targets, x0, gamma, T)
    assert rejects(ref.check_mean_model, models + 1e-6, targets, x0, gamma, T)


def test_matching_check():
    speeds = np.full((4, 4), 1e6)
    np.fill_diagonal(speeds, 0.0)
    ref.check_matching(((0, 1), (2, 3)), 4, speeds)
    assert rejects(ref.check_matching, ((0, 1), (1, 2)), 4, speeds)  # overlapping pairs
    assert rejects(ref.check_matching, ((0, 1),), 4, speeds)  # not n/2 pairs
    speeds[2, 3] = speeds[3, 2] = 0.0
    assert rejects(ref.check_matching, ((0, 1), (2, 3)), 4, speeds)  # dead link


def test_round_frames_check():
    k = 17
    size = ref.frame_bytes(k)
    assert size == 30 + 8 * k
    ref.check_round_frames([size] * 4, 4, k)
    assert rejects(ref.check_round_frames, [size] * 5, 4, k)  # one frame too many
    assert rejects(ref.check_round_frames, [size] * 3, 4, k)  # one frame too few
    assert rejects(ref.check_round_frames, [size] * 3 + [size + 8], 4, k)


def test_contraction_curve_check():
    ref.check_contraction_curve(np.array([1.0, 0.5, 0.5, 0.25]))
    assert rejects(ref.check_contraction_curve, np.array([1.0, 0.5, 0.6, 0.25]))
    assert rejects(ref.check_contraction_curve, np.array([0.9, 0.5, 0.4]))


def test_rho_check():
    # the two perfect matchings of a 4-ring, alternating: mean W^T W = mean W
    matchings = [((0, 1), (2, 3)), ((1, 2), (0, 3))]
    w = (ref.gossip_matrix(4, matchings[0]) + ref.gossip_matrix(4, matchings[1])) / 2
    want = float(np.sort(np.linalg.eigvals(w).real)[-2])
    ref.check_rho(want, 4, matchings)
    assert abs(want - 0.5) < 1e-12
    assert rejects(ref.check_rho, want + 1e-5, 4, matchings)


def test_unsquared_envelope_check():
    rho, c, t = 0.5, 2, np.arange(20)
    envelope = (0.5 + 0.5 * rho) ** t
    ref.check_unsquared_envelope(envelope, rho, c, 16, 100)
    above = envelope * 1.2
    above[0] = 1.0
    assert rejects(ref.check_unsquared_envelope, above, rho, c, 16, 100)


if __name__ == "__main__":
    tests = [f for name, f in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} reference tests passed")
