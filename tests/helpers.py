"""Functions over ``tillst`` that only the tests call."""

from tillst.runtime import Refl, StepC
from tillst.syntax import Action, SilentA, free_channel_table
from tillst.temporal import SEARCH_BUDGET, Hyps, entails_cex, eval_prop


def entails(g, f, p) -> bool:
    """G;F |- p: every F-satisfying assignment satisfies p."""
    holds, _ = entails_cex(g, f, p)
    return holds


def solve_satisfiable(g, f, budget: int = SEARCH_BUDGET):
    """A satisfying assignment of the conjunction of ``f``, or None.

    The assignment is total over ``g`` and maps each variable to its instant
    as an offset from init.  It is the model ``temporal._conjunct_model``
    makes of the conjunct the search completes: every node's shortest
    distance from a source at distance 0 to all of them, less init's.  So a
    variable no literal constrains gets minus init's distance, which is 0
    only when no literal pulls init below the source.
    """
    if isinstance(f, Hyps):
        return f.ctx.model(f, None, g, budget)
    f = Hyps().extend(f)
    try:
        return f.ctx.model(f, None, g, budget)
    finally:
        f._release()


def eval_closed_prop(p) -> bool:
    return eval_prop(p, {})


def free_channels(p) -> set:
    """The channels ``p`` uses and does not bind, read with a table of its
    own (see ``syntax.free_channel_table``)."""
    return set(free_channel_table(p, {}))


def seq_steps(sigma) -> int:
    """The communication steps of a step sequence."""
    n = 0
    while not isinstance(sigma, Refl):
        if isinstance(sigma, StepC):
            n += 1
        sigma = sigma.rest
    return n


_DUAL_DIR = {"send": "recv", "recv": "send"}


def complementary(alpha: Action) -> Action:
    """The other half of the same exchange."""
    if isinstance(alpha, SilentA):
        return alpha
    return Action(alpha.kind, _DUAL_DIR[alpha.direction], alpha.chan, alpha.payload)


def _partner(send: Action) -> Action:
    """The receive a send pairs with.  The receiver offers its own labels,
    but a sent value or channel is fixed by the send alone."""
    return complementary(send if send.kind == "label" else Action(send.kind, "send", send.chan))
