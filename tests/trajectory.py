"""Step-sequence combinators and computable trajectories, which only tests
read: no ``tillst`` command runs them.  Import it with this directory on
``sys.path`` (pytest puts it there; ``compare_outputs.py`` does too).

``reductions`` lists every step of an instant from one ``_Index``.
``seq_concat``, ``seq_extend_to`` and ``seq_interleave`` join, pad and
merge step sequences; the runtime keeps only what ``run_scheduler`` and
``replay`` read (``Refl``, ``StepT``, ``StepC``, ``seq_start``,
``seq_prepend``).

Computable trajectories are step sequences read as piecewise-constant
views of a run.  A trajectory maps each instant of a left-closed right-open interval to a
configuration; at an instant with several reductions it already shows the
configuration after all of them.  It is its step sequence and the end of its
interval: the breakpoints are read off the sequence once, so concatenation,
partitioning and interleaving act on the sequence alone.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property

from tillst.record import record
from tillst.runtime import (Configuration, ExternEnv, Refl, StepC, StepSequence, StepT,
                            _Index, congruence_normalize, seq_prepend, seq_start)
from tillst.temporal import render_instant


def reductions(omega: Configuration, now: int,
               env: ExternEnv | None = None,
               defs: dict | None = None) -> list:
    """Every step available at this instant, as (configuration, event)
    pairs in the candidate order the runtime's module docstring gives.
    Configurations are congruence-normalized; an exchange's event records
    its send half."""
    index = _Index(omega, now, env or ExternEnv(), defs or {})
    return [(cand.config, cand.event) for cand in index.candidates()]


# ---------------------------------------------------------------------------
# Step sequences (multistep reduction proof terms)


def seq_end(sigma: StepSequence) -> tuple:
    while not isinstance(sigma, Refl):
        sigma = sigma.rest
    return sigma.time, sigma.config


class SequenceMismatch(Exception):
    pass


def seq_concat(s1: StepSequence, s2: StepSequence) -> StepSequence:
    """Concatenate sequences; a time gap with equal configurations is bridged
    by an explicit clock advance."""
    end_t, end_c = seq_end(s1)
    start_t, start_c = seq_start(s2)
    if end_c != start_c or end_t > start_t:
        raise SequenceMismatch(
            f"cannot concatenate: ends at {end_t} with a different state than "
            f"{start_t}" if end_c != start_c else "time moves backwards")
    if end_t < start_t:
        s2 = StepT(end_t, start_t, end_c, s2)
    spine = []
    while not isinstance(s1, Refl):
        spine.append(s1)
        s1 = s1.rest
    return seq_prepend(spine, s2)


def seq_extend_to(sigma: StepSequence, end_time: int) -> StepSequence:
    """Pad the tail with a clock advance so the sequence ends at end_time."""
    t_end, c_end = seq_end(sigma)
    if end_time < t_end:
        raise SequenceMismatch("cannot shrink a sequence")
    if end_time == t_end:
        return sigma
    return seq_concat(sigma, Refl(end_time, c_end))


def seq_interleave(s1: StepSequence, s2: StepSequence) -> StepSequence:
    """Merge two sequences over the parallel composition of their states,
    taking instantaneous steps in non-decreasing time order (left first among
    simultaneous ones) and advancing the clock to the nearer target."""
    t1, _ = seq_start(s1)
    t2, _ = seq_start(s2)
    e1, c1 = seq_end(s1)
    e2, c2 = seq_end(s2)
    lo, hi = min(t1, t2), max(e1, e2)
    if t1 > lo:
        s1 = StepT(lo, t1, seq_start(s1)[1], s1)
    if t2 > lo:
        s2 = StepT(lo, t2, seq_start(s2)[1], s2)
    s1 = seq_extend_to(s1, hi)
    s2 = seq_extend_to(s2, hi)
    return _il(s1, s2)


def _il(s1: StepSequence, s2: StepSequence) -> StepSequence:
    pc = lambda a, b: congruence_normalize(a + b)
    spine = []
    while not (isinstance(s1, Refl) and isinstance(s2, Refl)):
        if isinstance(s1, StepC):
            other = seq_start(s2)[1]
            spine.append(StepC(s1.time, pc(s1.before, other), pc(s1.after, other), None))
            s1 = s1.rest
        elif isinstance(s2, StepC):
            other = seq_start(s1)[1]
            spine.append(StepC(s2.time, pc(other, s2.before), pc(other, s2.after), None))
            s2 = s2.rest
        elif isinstance(s1, StepT) and (isinstance(s2, Refl) or s1.t2 <= s2.t2):
            spine.append(StepT(s1.t1, s1.t2, pc(s1.config, s2.config), None))
            if isinstance(s2, Refl):
                s2 = Refl(s1.t2, s2.config)
            elif s1.t2 < s2.t2:
                s2 = StepT(s1.t2, s2.t2, s2.config, s2.rest)
            else:
                s2 = s2.rest
            s1 = s1.rest
        else:  # s2 is a StepT ending first, or s1 is Refl
            spine.append(StepT(s2.t1, s2.t2, pc(s1.config, s2.config), None))
            if isinstance(s1, Refl):
                s1 = Refl(s2.t2, s1.config)
            else:
                s1 = StepT(s2.t2, s1.t2, s1.config, s1.rest)
            s2 = s2.rest
    return seq_prepend(spine, Refl(s1.time, pc(s1.config, s2.config)))


# ---------------------------------------------------------------------------
# Computable trajectories


class DomainError(Exception):
    """An instant outside the trajectory's interval, or mismatched domains."""


@record
class CTraj:
    """A computable trajectory: the step sequence ``sigma`` read as a
    function on [its start, ``end``); ``end`` None is unbounded."""

    sigma: StepSequence
    end: int | None = None

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


def traj_from_sigma(sigma: StepSequence, end: int | None = None) -> CTraj:
    """Fill the gaps of a step sequence: the configuration holds steady until
    the next clock advance, and instantaneous steps collapse into the value
    the instant settles on."""
    if end is not None and end < seq_end(sigma)[0]:
        raise DomainError("domain end precedes the sequence's terminal instant")
    return CTraj(sigma, end)


def traj_at(w: CTraj, when: int) -> Configuration:
    return w.at(when)


def traj_equiv(w1: CTraj, w2: CTraj, interval: tuple | None = None) -> bool:
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
