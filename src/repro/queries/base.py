"""Common machinery shared by the TPC-H query designs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from repro.arrow.dataset import Table
from repro.arrow.fletcher import fletcher_interface_source, reader_behaviors
from repro.arrow.schema import ArrowSchema
from repro.lang.compile import CompilationResult, CompileOptions, compile_sources
from repro.sim.engine import SimulationTrace, Simulator
from repro.stdlib.source import stdlib_loc
from repro.utils.text import count_loc
from repro.vhdl.backend import VhdlBackend


@dataclass
class QueryLoc:
    """The line-of-code breakdown of one Table-IV row."""

    query: str
    raw_sql: int
    query_logic: int  # LoCq
    fletcher: int  # LoCf
    stdlib: int  # LoCs
    total_tydi: int  # LoCa = LoCq + LoCf + LoCs
    vhdl: int  # LoCvhdl
    ratio_query: float  # Rq = LoCvhdl / LoCq
    ratio_total: float  # Ra = LoCvhdl / LoCa

    def as_row(self) -> list[str]:
        return [
            self.query,
            str(self.raw_sql),
            str(self.query_logic),
            str(self.total_tydi),
            str(self.vhdl),
            f"{self.ratio_query:.2f}",
            f"{self.ratio_total:.2f}",
        ]


@dataclass
class TpchQuery:
    """One evaluated TPC-H query: sources, datasets and validation hooks."""

    name: str
    title: str
    sql: str
    query_source: str
    schemas: list[ArrowSchema]
    top: str
    #: Build the per-table datasets the reader behaviours stream (the key must
    #: match the schema/table name); receives the base TPC-H tables.
    dataset_builder: Callable[[Mapping[str, Table]], dict[str, Table]]
    #: Compute the golden (reference) result from the base TPC-H tables.
    golden: Callable[[Mapping[str, Table]], object]
    #: Turn a finished simulation trace into the same shape as ``golden``.
    extract_result: Callable[[SimulationTrace], object]
    #: Whether the design relies on automatic duplicator/voider insertion.
    sugaring: bool = True
    _compiled: Optional[CompilationResult] = field(default=None, repr=False)

    # -- compilation --------------------------------------------------------------

    def sources(self) -> list[tuple[str, str]]:
        """The Fletcher interface plus the query logic (stdlib is implicit)."""
        return [
            (fletcher_interface_source(self.schemas), f"{self.name}_fletcher.td"),
            (self.query_source, f"{self.name}.td"),
        ]

    def compile(self, *, force: bool = False, cache=None) -> CompilationResult:
        """Compile the full design (stdlib + Fletcher interface + query logic).

        ``cache`` is an optional :class:`repro.pipeline.StageCache`;
        the per-query memo (``_compiled``) sits in front of it.  ``force``
        guarantees a real recompilation, so it bypasses both the memo and
        the cache.
        """
        if self._compiled is None or force:
            self._compiled = compile_sources(
                self.sources(),
                top=self.top,
                include_stdlib=True,
                sugaring=self.sugaring,
                project_name=self.name,
                cache=None if force else cache,
            )
        return self._compiled

    def compile_job(self):
        """This query as a :class:`repro.pipeline.CompileJob` for batch runs."""
        from repro.pipeline import CompileJob

        options = CompileOptions(top=self.top, sugaring=self.sugaring, project_name=self.name)
        return CompileJob(self.name, self.sources(), options)

    # -- line-of-code accounting ---------------------------------------------------

    def loc(self) -> QueryLoc:
        """Compute this query's Table-IV row."""
        query_logic = count_loc(self.query_source, language="tydi")
        fletcher = count_loc(fletcher_interface_source(self.schemas), language="tydi")
        stdlib = stdlib_loc()
        vhdl = VhdlBackend(self.compile().project).total_loc()
        total = query_logic + fletcher + stdlib
        return QueryLoc(
            query=self.title,
            raw_sql=count_loc(self.sql, language="sql"),
            query_logic=query_logic,
            fletcher=fletcher,
            stdlib=stdlib,
            total_tydi=total,
            vhdl=vhdl,
            ratio_query=vhdl / query_logic if query_logic else 0.0,
            ratio_total=vhdl / total if total else 0.0,
        )

    # -- simulation ------------------------------------------------------------------

    def default_plan(
        self, *, channel_capacity: int = 4, max_events: int = 5_000_000
    ):
        """The :class:`~repro.sim.harness.SimulationPlan` query runs use.

        TPC-H designs drive themselves through their reader behaviours, so
        the plan carries no stimuli -- only the channel capacity and the
        event budget the historical ``simulate`` defaults used.
        """
        from repro.sim.harness import SimulationPlan

        return SimulationPlan(
            channel_capacity=channel_capacity, max_events=max_events
        )

    def simulate(
        self,
        tables: Mapping[str, Table],
        *,
        channel_capacity: int = 4,
        max_events: int = 5_000_000,
    ) -> tuple[object, SimulationTrace, Simulator]:
        """Run the compiled design on a dataset and extract its result.

        Budgets resolve through :meth:`default_plan`, the same path the
        simulation harness takes; callers that want the picklable
        :class:`~repro.sim.harness.SimulationReport` instead of the raw
        trace use :meth:`simulate_report`.
        """
        plan = self.default_plan(
            channel_capacity=channel_capacity, max_events=max_events
        )
        datasets = self.dataset_builder(tables)
        result = self.compile()
        behaviors = reader_behaviors(self.schemas, datasets)
        simulator = Simulator(
            result.project,
            channel_capacity=plan.channel_capacity,
            behaviors=behaviors,
        )
        trace = simulator.run(max_time=plan.max_time, max_events=plan.max_events)
        return self.extract_result(trace), trace, simulator

    def simulate_report(
        self,
        tables: Mapping[str, Table],
        *,
        plan=None,
    ):
        """Simulate on a dataset and return the harness's report.

        Delegates to :func:`~repro.sim.harness.run_simulation` with this
        query's reader behaviours.  Behaviour overrides hold the dataset
        (not JSON-serialisable), so these runs bypass the ``sim:`` cache
        tier by construction -- the report itself still pickles fine.
        """
        from repro.sim.harness import SimulationPlan, run_simulation

        plan = self.default_plan() if plan is None else SimulationPlan.coerce(plan)
        datasets = self.dataset_builder(tables)
        behaviors = reader_behaviors(self.schemas, datasets)
        return run_simulation(self.compile().project, plan, behaviors=behaviors)
