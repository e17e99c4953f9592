"""Hand-written Tydi-lang designs for the TPC-H queries evaluated in the paper.

Each query module exposes a :class:`repro.queries.base.TpchQuery` object
(named ``QUERY``) bundling:

* the raw SQL text (for the "Raw SQL query" LoC column of Table IV),
* the Tydi-lang *query logic* source (the LoCq column),
* the Arrow schemas whose Fletcher readers the design instantiates
  (the LoCf column comes from the generated interface),
* compile / VHDL-generation helpers (LoCvhdl and the Rq/Ra ratios),
* simulation + golden-result helpers for functional validation.

``ALL_QUERIES`` lists them in the order of Table IV, including the
non-sugared variant of query 1.
"""

from repro.queries.base import TpchQuery, QueryLoc
from repro.queries import q1, q3, q5, q6, q19

#: Queries in the row order of Table IV.
ALL_QUERIES: list[TpchQuery] = [
    q1.QUERY_NO_SUGAR,
    q1.QUERY,
    q3.QUERY,
    q5.QUERY,
    q6.QUERY,
    q19.QUERY,
]

#: Queries by name (sugared variants only).
QUERIES: dict[str, TpchQuery] = {
    "q1": q1.QUERY,
    "q1_no_sugar": q1.QUERY_NO_SUGAR,
    "q3": q3.QUERY,
    "q5": q5.QUERY,
    "q6": q6.QUERY,
    "q19": q19.QUERY,
}


def compile_all(
    queries=None,
    *,
    cache=None,
    executor: str = "serial",
    max_workers=None,
    strict: bool = True,
):
    """Compile the TPC-H suite through a throwaway workspace session.

    Returns ``{query_name: CompilationResult}`` in suite order and memoises
    each result on its :class:`TpchQuery` (so later ``query.compile()`` /
    ``query.simulate()`` calls reuse the batch output).  With ``strict`` the
    first failing design raises :class:`repro.pipeline.
    BatchCompilationError`; otherwise failures are silently absent from the
    returned mapping.
    """
    from repro.workspace import Workspace

    queries = list(ALL_QUERIES if queries is None else queries)
    workspace = Workspace(cache=cache)
    for query in queries:
        workspace.add_job(query.compile_job())
    outcome = workspace.compile_all(executor=executor, jobs=max_workers).batch
    if strict:
        outcome.raise_if_failed()
    results = outcome.result_map()
    for query in queries:
        if query.name in results:
            query._compiled = results[query.name]
    return {query.name: results[query.name] for query in queries if query.name in results}


__all__ = ["TpchQuery", "QueryLoc", "ALL_QUERIES", "QUERIES", "compile_all"]
