"""Pinned selector streams.

The digests below were computed with the original functional selector
(`generate_gossip_matrix` followed by `TimestampMatrix.with_pairs` every
round); the stateful `AdaptiveSelector` was checked against that function
round by round when each set was taken.  Any change to the peer-selection
hot path must reproduce them: the same `random.Random` draws, matchings,
gossip matrices, mask seeds and final timestamp matrix for every seed.
"""

import hashlib
import random

import numpy as np
import pytest

from saps.coordinator import Coordinator, get_new_connected_graph
from saps.core import symmetrize_bandwidth
from saps.matching import AdaptiveSelector, shuffle_lists

ROUNDS = 300


def uniform_network(n, seed):
    """Uniform on (0, 5 MB/s], threshold at the median positive link."""
    rng = np.random.default_rng(seed)
    b = symmetrize_bandwidth(5e6 - rng.uniform(0, 5e6, size=(n, n)))
    return b, float(np.median(b.speeds[b.speeds > 0]))


def stream_digest(coord, rounds=ROUNDS):
    """sha256 over every round's mask seed, matching (in its iteration order),
    bandwidth figures and gossip matrix, then the matching RNG's final state
    and (adaptive only) the timestamps.

    The mean bandwidth enters as the mean over the pairs in their iteration
    order, the figure the digests were taken with; `plan.mean_bw` sums in
    sorted pair order, so that it does not depend on how the frozenset was
    built, and is checked against that rule every round."""
    h = hashlib.sha256()
    for _ in range(rounds):
        plan = coord.plan_round()
        pairs = list(plan.matching.pairs)
        in_order = [coord.b.speeds[p] for p in pairs]
        assert plan.mean_bw == (np.mean([coord.b.speeds[p] for p in sorted(pairs)]) if pairs else 0.0)
        h.update(plan.seed.to_bytes(8, "little"))
        h.update(repr(pairs).encode())
        mean_bw = float(np.mean(in_order)) if pairs else 0.0
        h.update(np.array([plan.min_bw, mean_bw, plan.seconds]).tobytes())
        h.update(plan.gossip.weights.tobytes())
    h.update(repr(coord.selector.rng.getstate()).encode())
    r = getattr(coord.selector, "r", None)
    if r is not None:
        h.update(np.ascontiguousarray(r.last_round, dtype="<i8").tobytes())
    return h.hexdigest()


GOLDEN_ADAPTIVE = {
    (4, 1, 1):
        "0ccde13a219f893ade7d5fc388cab5b77d56726bae0234de9a47798035078f10",
    (16, 7, 10):
        "ecb13459df9e567eb330503fec3f22516aa4a3a84e885b00ded487f56788d899",
    (33, 3, 3):
        "2241a4f14307b3213a83e5dc1a743e2b70fc17f828f7afc70ffc22dd483d9abf",
    (128, 5, 10):
        "a474f6503ed90693c49cec250d129d167dbf39b8836d581c02d09301eadce090",
}
GOLDEN_RANDOM_16 = "418dfe5588d1c09eeb3e6b0c7c960994c4a3fa3ed6d187cea402d076e8d8eb77"


@pytest.mark.parametrize("n,seed,t_thres", sorted(GOLDEN_ADAPTIVE))
def test_adaptive_stream_matches_golden_digest(n, seed, t_thres):
    b, b_thres = uniform_network(n, seed)
    coord = Coordinator(b, b_thres, t_thres, master_seed=seed, c=4, n_dims=64)
    assert stream_digest(coord) == GOLDEN_ADAPTIVE[(n, seed, t_thres)]


def test_random_selector_stream_matches_golden_digest():
    b, b_thres = uniform_network(16, 2)
    coord = Coordinator(b, b_thres, 10, master_seed=2, c=4, n_dims=64, peer_selection="random")
    assert stream_digest(coord) == GOLDEN_RANDOM_16


def sparse_network(n, seed, p=0.4):
    """A random graph with zero-bandwidth gaps, so B* and the bridging
    candidates are often too sparse for a perfect matching."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1.0, 10.0, size=(n, n)) * (rng.random((n, n)) < p)
    return symmetrize_bandwidth(np.maximum(raw, raw.T))


# (n, t_thres, seed, dense): bridging-heavy runs (small T_thres, odd n,
# sparse links).  Each digest was taken at the last commit that still had
# `generate_gossip_matrix`, with the selector asserted equal to it (pairs in
# iteration order, W, R and the RNG state) at every round.
GOLDEN_BRIDGING = {
    (3, 1, 1, True):
        "9be306c2911abfd73d467f73fbf56e4bb894b88e16f80b8cec6ce76e2032dc05",
    (5, 1, 2, True):
        "3178c5bbee2a7485001abb9dc52b3638e1237edb37eb2b952242e16e75b8d1c6",
    (7, 2, 3, False):
        "39c6f2894cc492bd629df06bf4b2e711d33f22ec134e1761028aa7f70ffd3870",
    (9, 1, 4, False):
        "2b95f64541ed3b7b63ef38fcf83deacf4a4f2e07476e1075bde20a76e89d644c",
    (15, 1, 5, True):
        "24be01cc1f8149bb54007404871360ee6ed67634c2662472e8bfeafb71b297da",
    (17, 3, 6, False):
        "c06c9fd4ec37e3940246a89ac05a9e19dbc63ab06f4c9d6ef9bcd7b78ce0e09c",
    (31, 1, 7, True):
        "1feaa192be4a957e80553e0bf68b531e1f0a12e6b7f4f287e1fe0d6eb5793cf2",
    (33, 2, 8, False):
        "ead405abe561a58b2fa001ac3a581236e89e5cf05e1b1665d7da01e767422f7a",
}


@pytest.mark.parametrize("n,t_thres,seed,dense", sorted(GOLDEN_BRIDGING))
def test_selector_equals_functional_reference(n, t_thres, seed, dense):
    """200 rounds of the stateful selector, including a mid-run bandwidth
    change as the coordinator makes one after a BANDWIDTH_REPORT, reproduce
    the functional reference's digest: every round's pairs in iteration order
    and W, then the RNG's final state and R."""
    b = uniform_network(n, seed)[0] if dense else sparse_network(n, seed)
    b_star = get_new_connected_graph(b, float(np.median(b.speeds[b.speeds > 0])))
    sel = AdaptiveSelector(b, b_star, t_thres, random.Random(seed))
    h = hashlib.sha256()
    for t in range(200):
        if t == 100:
            speeds = b.speeds.copy()
            speeds[0, :] = speeds[:, 0] = 0.0
            sel.b = symmetrize_bandwidth(speeds)
        w, m = sel.next_round()
        h.update(repr(list(m.pairs)).encode())
        h.update(w.weights.tobytes())
    h.update(repr(sel.rng.getstate()).encode())
    h.update(np.ascontiguousarray(sel.r.last_round, dtype="<i8").tobytes())
    assert h.hexdigest() == GOLDEN_BRIDGING[(n, t_thres, seed, dense)]


def test_selector_timestamps_are_a_snapshot():
    b, b_thres = uniform_network(6, 1)
    sel = AdaptiveSelector(b, get_new_connected_graph(b, b_thres), 2, random.Random(1))
    sel.next_round()
    before = sel.r
    kept = before.last_round.copy()
    for _ in range(5):
        sel.next_round()
    assert np.array_equal(before.last_round, kept)
    assert not before.last_round.flags.writeable


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5, 123456789])
def test_shuffle_lists_equals_random_shuffle(seed):
    lengths = list(range(301)) + [300, 0, 1, 2, 17, 256, 129]
    ours = [list(range(k)) for k in lengths]
    theirs = [list(range(k)) for k in lengths]
    rng, ref = random.Random(seed), random.Random(seed)
    shuffle_lists(ours, rng)
    for x in theirs:
        ref.shuffle(x)
    assert ours == theirs
    assert rng.getstate() == ref.getstate()


def test_shuffle_lists_defers_to_other_generators():
    class Counting(random.Random):
        calls = 0

        def shuffle(self, x):
            Counting.calls += 1
            super().shuffle(x)

    lists = [list(range(5)), [], list(range(3))]
    shuffle_lists(lists, Counting(3))
    assert Counting.calls == 3
