"""Computable trajectories: piecewise-constant views of a run plus the step
sequence that justifies them.

A trajectory maps each instant of a left-closed right-open interval to a
configuration; at an instant with several reductions it already shows the
configuration after all of them.  Pairing with a step sequence makes it
computable; concatenation, partitioning, and interleaving act on both halves
of the pair at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .runtime import (Configuration, Refl, SequenceMismatch, StepSequence, StepT,
                      congruence_normalize, seq_concat, seq_end, seq_interleave,
                      seq_prepend, seq_start)


class DomainError(Exception):
    """An instant outside the trajectory's interval, or mismatched domains."""


@dataclass(frozen=True)
class Trajectory:
    start: int
    end: Optional[int]  # None = unbounded
    points: tuple  # ordered (time, configuration), first at ``start``

    def at(self, when: int) -> Configuration:
        if when < self.start or (self.end is not None and when >= self.end):
            raise DomainError(f"t0+{when} outside [{self.start}, {self.end})")
        value = self.points[0][1]
        for tick, conf in self.points:
            if tick <= when:
                value = conf
            else:
                break
        return value

    def breakpoint_times(self) -> list:
        return [tick for tick, _ in self.points]


@dataclass(frozen=True)
class CTraj:
    """A computable trajectory: the function together with its receipt."""

    r: Trajectory
    sigma: StepSequence

    def at(self, when: int) -> Configuration:
        return self.r.at(when)

    @property
    def start(self) -> int:
        return self.r.start

    @property
    def end(self) -> Optional[int]:
        return self.r.end

    def initial(self) -> Configuration:
        return seq_start(self.sigma)[1]

    def terminal(self) -> Configuration:
        return seq_end(self.sigma)[1]


def traj_from_sigma(sigma: StepSequence, end: Optional[int] = None) -> CTraj:
    """Fill the gaps of a step sequence: the configuration holds steady until
    the next clock advance, and instantaneous steps collapse into the value
    the instant settles on."""
    start = seq_start(sigma)[0]
    points, sig = [], sigma
    while not isinstance(sig, Refl):
        if isinstance(sig, StepT):
            points.append((sig.t1, sig.config))
        sig = sig.rest
    points.append((sig.time, sig.config))
    # collapse duplicate instants (instantaneous runs) keeping the settled value
    merged = []
    for tick, conf in points:
        if merged and merged[-1][0] == tick:
            merged[-1] = (tick, conf)
        else:
            merged.append((tick, conf))
    final_t = seq_end(sigma)[0]
    if end is not None and end < final_t:
        raise DomainError("domain end precedes the sequence's terminal instant")
    if end is not None:
        inside = [pt for pt in merged if pt[0] < end]
        merged = inside or merged[:1]
    return CTraj(Trajectory(start, end, tuple(merged)), sigma)


def traj_at(w: CTraj, when: int) -> Configuration:
    return w.at(when)


def traj_equiv(w1: CTraj, w2: CTraj, interval: Optional[tuple] = None) -> bool:
    """Pointwise equality (modulo congruence) on the given interval, default
    the shared domain."""
    if interval is None:
        if (w1.start, w1.end) != (w2.start, w2.end):
            return False
        lo, hi = w1.start, w1.end
    else:
        lo, hi = interval
    samples = set(w1.r.breakpoint_times()) | set(w2.r.breakpoint_times()) | {lo}
    for tick in sorted(samples):
        if tick < lo or (hi is not None and tick >= hi):
            continue
        a = congruence_normalize(w1.at(tick))
        b = congruence_normalize(w2.at(tick))
        if a != b:
            return False
    return True


def traj_concat(w1: CTraj, w2: CTraj) -> CTraj:
    """Stitch trajectories with connected domains (w1 must be a segment)."""
    if w1.end is None or w1.end != w2.start:
        raise DomainError(f"domains not connected: [{w1.start},{w1.end}) then "
                          f"[{w2.start},{w2.end})")
    try:
        sigma = seq_concat(w1.sigma, w2.sigma)
    except SequenceMismatch as exc:
        raise DomainError(str(exc)) from exc
    pts = [pt for pt in w1.r.points if pt[0] < w1.end]
    for pt in w2.r.points:
        if pts and pts[-1][0] == pt[0]:
            pts[-1] = pt
        else:
            pts.append(pt)
    return CTraj(Trajectory(w1.start, w2.end, tuple(pts)), sigma)


def _lpar_sigma(sigma: StepSequence, when: int) -> StepSequence:
    """The steps before ``when``, a clock advance across it cut there."""
    spine = []
    while not isinstance(sigma, Refl):
        if isinstance(sigma, StepT) and when < sigma.t2:
            spine.append(StepT(sigma.t1, when, sigma.config, None))
            sigma = Refl(when, sigma.config)
            break
        spine.append(sigma)
        sigma = sigma.rest
    return seq_prepend(spine, sigma)


def _rpar_sigma(sigma: StepSequence, when: int) -> StepSequence:
    """The steps from ``when`` on, a clock advance across it started there."""
    while not isinstance(sigma, Refl):
        if isinstance(sigma, StepT) and when < sigma.t2:
            return StepT(when, sigma.t2, sigma.config, sigma.rest)
        sigma = sigma.rest
    return Refl(when, sigma.config)


def traj_partition(w: CTraj, when: int) -> tuple:
    """Split at an instant of the domain: ([start, when), [when, end))."""
    if when < w.start or (w.end is not None and when >= w.end):
        raise DomainError(f"partition point t0+{when} outside the domain")
    left_sigma = _lpar_sigma(w.sigma, when)
    right_sigma = _rpar_sigma(w.sigma, when)
    left_pts = tuple(pt for pt in w.r.points if pt[0] <= when) or w.r.points[:1]
    left_pts = tuple(pt for pt in left_pts if pt[0] < when) or (w.r.points[0],)
    right_first = w.at(when)
    right_pts = ((when, right_first),) + tuple(pt for pt in w.r.points if pt[0] > when)
    left = CTraj(Trajectory(w.start, when, left_pts), left_sigma)
    right = CTraj(Trajectory(when, w.end, right_pts), right_sigma)
    return left, right


def traj_interleave(w1: CTraj, w2: CTraj) -> CTraj:
    """Parallel-compose trajectories over the same interval."""
    if (w1.start, w1.end) != (w2.start, w2.end):
        raise DomainError("interleaving needs equal domains")
    sigma = seq_interleave(w1.sigma, w2.sigma)
    if w1.end == w1.start:  # empty segments still carry a nominal anchor
        anchor = congruence_normalize(w1.r.points[0][1] + w2.r.points[0][1])
        return CTraj(Trajectory(w1.start, w1.end, ((w1.start, anchor),)), sigma)
    times = sorted(set(w1.r.breakpoint_times()) | set(w2.r.breakpoint_times()))
    pts = tuple((tick, congruence_normalize(w1.at(tick) + w2.at(tick)))
                for tick in times)
    return CTraj(Trajectory(w1.start, w1.end, pts), sigma)
