"""Build and restore the cache blob of one executable's analysis.

A blob records what EEL computes once per executable (paper section
3).  Its ``facts`` table is the executable's whole fact store (see
:mod:`repro.core.facts`): routine identities, CFG shapes (with
delay-slot hoists and indirect-jump resolutions baked in), liveness and
the derived kinds, plus their dependency edges.  Beside it, the
``routines`` and ``hidden`` identity lists keep refinement's order
(stage 3/4 append hidden routines in discovery order, which the facts
alone do not give), ``claimed`` the dispatch-table data and
``provenance`` where the routine set came from.
"""

from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span

_C_HYDRATED = _metrics.counter("facts.hydrated")
_C_HYDRATE_REJECTS = _metrics.counter("facts.hydrate_rejects")


def executable_to_summary(executable):
    """Summarize *executable*'s refined, analyzed state.

    Must run after ``read_contents``: derives every fact kind, then
    records the claimed set last, since building the CFGs claims
    dispatch-table data.
    """
    from repro.core.facts import rules as _fact_rules
    from repro.core.symtab_refine import routine_identity

    store = executable.fact_store()
    _fact_rules.populate(executable, store)
    return {
        "arch": executable.arch,
        "provenance": executable.analysis_provenance,
        "routines": [routine_identity(r) for r in executable._routines],
        "hidden": [routine_identity(r) for r in executable._hidden],
        "claimed": sorted(executable._claimed),
        "facts": store.to_summary(),
    }


def restore_executable(executable, summary):
    """Recreate the refined routine sets and fact store from *summary*.

    Returns (routines, hidden) lists of Routine objects and leaves the
    hydrated :class:`FactStore` on ``executable.facts``; CFGs and
    liveness restore from its facts on first use.  Returns None — a
    clean miss, never a partial hydrate — when the summary does not
    describe this executable, its fact table is malformed, or any
    routine lacks clean ``cfg``/``liveness`` facts under a matching
    ``routine`` fact (``facts.hydrate_rejects`` counts the last two).
    """
    from repro.core.facts import FactStore
    from repro.core.facts import rules as _fact_rules
    from repro.core.symtab_refine import routine_from_identity

    if summary.get("arch") != executable.arch:
        return None
    store = FactStore.from_summary(summary.get("facts"))
    if store is None:
        _C_HYDRATE_REJECTS.inc()
        return None
    with _span("cache.restore",
               routines=len(summary["routines"]),
               hidden=len(summary["hidden"])):
        routines = [routine_from_identity(executable, entry)
                    for entry in summary["routines"]]
        hidden = [routine_from_identity(executable, entry)
                  for entry in summary["hidden"]]
        for routine in routines + hidden:
            facts = _fact_rules.restorable(store, routine)
            if facts is None or facts[1] is None:
                _C_HYDRATE_REJECTS.inc()
                return None
        executable._claimed = set(summary["claimed"])
        executable.facts = store
        executable.analysis_provenance = summary.get("provenance",
                                                     "discovery")
    _C_HYDRATED.inc(len(store))
    return routines, hidden
