"""Laws of the trajectory algebra over randomized scheduler runs."""

import random

import pytest

from helpers import seq_steps
from tillst import syntax as s
from tillst import temporal as t
from tillst.runtime import (ProcC, Refl, StepT, congruence_normalize,
                            replay, run_scheduler)
from trajectory import (DomainError, seq_concat, seq_extend_to, seq_interleave,
                        traj_at, traj_concat, traj_equiv, traj_from_sigma,
                        traj_interleave, traj_partition)

sh = t.init_plus
HORIZON = 64


def close_chain(rng, prefix):
    """A provider/client pair with a couple of staged exchanges."""
    n1 = rng.randint(0, 20)
    n2 = rng.randint(n1, 40)
    a, b = f"{prefix}p", f"{prefix}c"
    provider = ProcC(a, s.ProdP("t", t.Eq(t.tvar("t"), sh(n1)), s.IntLit(1),
                                s.CloseP("u", t.Eq(t.tvar("u"), sh(n2)))))
    client = ProcC(b, s.ConsP(a, sh(n1), "v",
                              s.WaitP(sh(n2), a,
                                      s.CloseP("u", t.Eq(t.tvar("u"), sh(n2))))))
    return (provider, client)


def harvest(rng, prefix):
    conf = close_chain(rng, prefix)
    result = run_scheduler(conf, 0, horizon=HORIZON)
    assert result.status == "done"
    return traj_from_sigma(seq_extend_to(result.sigma, HORIZON), end=HORIZON)


def sample_times(w1, w2):
    times = set(w1.breakpoint_times()) | set(w2.breakpoint_times())
    return sorted(tm for tm in times if 0 <= tm < HORIZON)


@pytest.fixture(scope="module")
def harvested():
    rng = random.Random(4242)
    return [(harvest(rng, f"a{i}_"), harvest(rng, f"b{i}_")) for i in range(40)]


def test_harvest_count(harvested):
    assert len(harvested) * 2 >= 80


def test_interleave_is_pointwise_parallel(harvested):
    for w1, w2 in harvested:
        wi = traj_interleave(w1, w2)
        for tm in sample_times(w1, w2):
            assert congruence_normalize(traj_at(wi, tm)) == \
                congruence_normalize(traj_at(w1, tm) + traj_at(w2, tm))


def test_partition_concat_duality(harvested):
    rng = random.Random(7)
    for w1, w2 in harvested:
        wi = traj_interleave(w1, w2)
        for tm in {0, rng.randrange(HORIZON), HORIZON - 1}:
            left, right = traj_partition(wi, tm)
            assert left.end == tm and right.start == tm
            assert traj_equiv(traj_concat(left, right), wi)


def test_partition_distributes_over_interleaving(harvested):
    rng = random.Random(11)
    for w1, w2 in harvested:
        wi = traj_interleave(w1, w2)
        tm = rng.randrange(HORIZON)
        l1, r1 = traj_partition(w1, tm)
        l2, r2 = traj_partition(w2, tm)
        li, ri = traj_partition(wi, tm)
        assert traj_equiv(li, traj_interleave(l1, l2))
        assert traj_equiv(ri, traj_interleave(r1, r2))
        assert traj_equiv(traj_concat(traj_interleave(l1, l2),
                                      traj_interleave(r1, r2)), wi)


def test_interleaved_sigma_replays(harvested):
    for w1, w2 in harvested[:10]:
        assert replay(traj_interleave(w1, w2).sigma)


def linear_at(w, when):
    """The reference: scan the breakpoints from the first."""
    value = w.points[0][1]
    for tick, conf in w.points:
        if tick > when:
            break
        value = conf
    return value


def test_at_matches_linear_scan(harvested):
    # at, between and after every breakpoint of bounded, interleaved and
    # unbounded trajectories
    rng = random.Random(19)
    for w1, w2 in harvested:
        unbounded = traj_from_sigma(run_scheduler(close_chain(rng, "u_"), 0).sigma)
        for w in (w1, w2, traj_interleave(w1, w2), unbounded):
            ticks = w.breakpoint_times()
            last = HORIZON - 1 if w.end is not None else ticks[-1] + 100
            samples = {last}
            for tick, nxt in zip(ticks, ticks[1:] + [last + 1]):
                samples.update((tick, tick + 1, (tick + nxt) // 2, nxt - 1))
            for when in sorted(x for x in samples if w.start <= x <= last):
                assert traj_at(w, when) is linear_at(w, when)


def test_partition_at_left_endpoint_boundary(harvested):
    w1, _ = harvested[0]
    left, right = traj_partition(w1, 0)
    assert left.start == 0 and left.end == 0  # empty segment
    assert traj_equiv(right, w1)


def test_partition_outside_domain_rejected(harvested):
    w1, _ = harvested[0]
    with pytest.raises(DomainError):
        traj_partition(w1, HORIZON)
    with pytest.raises(DomainError):
        traj_at(w1, -1)


def test_concat_needs_connected_domains(harvested):
    w1, w2 = harvested[0]
    with pytest.raises(DomainError):
        traj_concat(w1, w2)  # same interval, not connected


class TestSequenceOps:
    def test_concat_left_unit(self):
        conf = (ProcC("a", s.CloseP("t", t.TOP)),)
        sigma = StepT(0, 4, conf, Refl(4, conf))
        assert seq_concat(Refl(0, conf), sigma) == sigma

    def test_concat_bridges_time_gap(self):
        conf = (ProcC("a", s.CloseP("t", t.TOP)),)
        out = seq_concat(Refl(0, conf), Refl(7, conf))
        assert isinstance(out, StepT) and (out.t1, out.t2) == (0, 7)

    def test_concat_rejects_mismatched_states(self):
        from trajectory import SequenceMismatch

        a = Refl(0, (ProcC("a", s.CloseP("t", t.TOP)),))
        b = Refl(0, (ProcC("b", s.CloseP("t", t.TOP)),))
        with pytest.raises(SequenceMismatch):
            seq_concat(a, b)

    def test_interleave_of_refls(self):
        a = Refl(2, (ProcC("a", s.CloseP("t", t.TOP)),))
        b = Refl(2, (ProcC("b", s.CloseP("t", t.TOP)),))
        out = seq_interleave(a, b)
        assert isinstance(out, Refl)
        assert congruence_normalize(out.config) == congruence_normalize(
            a.config + b.config)

    def test_time_advance_merges_to_nearer_target(self):
        conf_a = (ProcC("a", s.CloseP("t", t.TOP)),)
        conf_b = (ProcC("b", s.CloseP("t", t.TOP)),)
        sa = StepT(0, 3, conf_a, Refl(3, conf_a))
        sb = StepT(0, 9, conf_b, Refl(9, conf_b))
        out = seq_interleave(sa, sb)
        assert isinstance(out, StepT) and out.t2 == 3

    def test_equal_time_advances_merge_into_one(self):
        conf_a = (ProcC("a", s.CloseP("t", t.TOP)),)
        conf_b = (ProcC("b", s.CloseP("t", t.TOP)),)
        out = seq_interleave(StepT(0, 5, conf_a, Refl(5, conf_a)),
                             StepT(0, 5, conf_b, Refl(5, conf_b)))
        both = conf_a + conf_b
        assert out == StepT(0, 5, both, Refl(5, both))

    def test_step_count_additive(self):
        rng = random.Random(5)
        r1 = run_scheduler(close_chain(rng, "x_"), 0, horizon=HORIZON)
        r2 = run_scheduler(close_chain(rng, "y_"), 0, horizon=HORIZON)
        merged = seq_interleave(r1.sigma, r2.sigma)
        assert seq_steps(merged) == seq_steps(r1.sigma) + seq_steps(r2.sigma)


def test_partitioned_sigmas_concat_and_replay(harvested):
    for w1, w2 in harvested[:6]:
        wi = traj_interleave(w1, w2)
        left, right = traj_partition(wi, 9)
        rejoined = traj_concat(left, right)
        assert replay(rejoined.sigma)
