"""Computable trajectories: step sequences read as piecewise-constant views
of a run.

A trajectory maps each instant of a left-closed right-open interval to a
configuration; at an instant with several reductions it already shows the
configuration after all of them.  It is its step sequence and the end of its
interval: the breakpoints are read off the sequence once, so concatenation,
partitioning and interleaving act on the sequence alone.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from typing import Optional

from .record import record
from .runtime import (Configuration, Refl, SequenceMismatch, StepSequence, StepT,
                      congruence_normalize, seq_concat, seq_end, seq_interleave,
                      seq_prepend, seq_start)
from .temporal import render_instant


class DomainError(Exception):
    """An instant outside the trajectory's interval, or mismatched domains."""


@record
class CTraj:
    """A computable trajectory: the step sequence ``sigma`` read as a
    function on [its start, ``end``); ``end`` None is unbounded."""

    sigma: StepSequence
    end: Optional[int] = None

    @cached_property
    def points(self) -> tuple:
        """(instant, configuration) at each breakpoint, first at ``start``:
        the configuration each clock advance leaves from and the last one,
        each instant showing the configuration it settles on."""
        points, sig = [], self.sigma
        while not isinstance(sig, Refl):
            if isinstance(sig, StepT):
                points.append((sig.t1, sig.config))
            sig = sig.rest
        points.append((sig.time, sig.config))
        settled = list(dict(points).items())  # the last configuration per instant
        if self.end is not None:
            settled = [pt for pt in settled if pt[0] < self.end] or settled[:1]
        return tuple(settled)

    @property
    def start(self) -> int:
        return seq_start(self.sigma)[0]

    @cached_property
    def _ticks(self) -> list:
        return [tick for tick, _ in self.points]

    def at(self, when: int) -> Configuration:
        """The configuration of the last breakpoint at or before ``when``,
        found by bisection."""
        if when < self.start or (self.end is not None and when >= self.end):
            raise DomainError(f"{render_instant(when)} outside [{self.start}, {self.end})")
        return self.points[max(bisect_right(self._ticks, when) - 1, 0)][1]

    def breakpoint_times(self) -> list:
        return list(self._ticks)

    def initial(self) -> Configuration:
        return seq_start(self.sigma)[1]

    def terminal(self) -> Configuration:
        return seq_end(self.sigma)[1]


def traj_from_sigma(sigma: StepSequence, end: Optional[int] = None) -> CTraj:
    """Fill the gaps of a step sequence: the configuration holds steady until
    the next clock advance, and instantaneous steps collapse into the value
    the instant settles on."""
    if end is not None and end < seq_end(sigma)[0]:
        raise DomainError("domain end precedes the sequence's terminal instant")
    return CTraj(sigma, end)


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
    samples = set(w1.breakpoint_times()) | set(w2.breakpoint_times()) | {lo}
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
    return CTraj(sigma, w2.end)


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
        raise DomainError(f"partition point {render_instant(when)} outside the domain")
    return CTraj(_lpar_sigma(w.sigma, when), when), CTraj(_rpar_sigma(w.sigma, when), w.end)


def traj_interleave(w1: CTraj, w2: CTraj) -> CTraj:
    """Parallel-compose trajectories over the same interval."""
    if (w1.start, w1.end) != (w2.start, w2.end):
        raise DomainError("interleaving needs equal domains")
    return CTraj(seq_interleave(w1.sigma, w2.sigma), w1.end)
