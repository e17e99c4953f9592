"""Differential harness: registry backends == the emitters they replaced.

The registered ``vhdl``, ``verilog``, ``ir`` and ``tydi-ir`` backends are
the only whole-project emission paths: each is ``assemble`` over
``emit_shared`` and per-implementation ``emit_unit`` outputs.  The
whole-project emitters they replaced -- ``VhdlBackend.generate``,
``VerilogBackend.generate``, ``repro.ir.emit.emit_project`` and the
section join of ``repro.interchange.emit.emit_document`` -- are kept
verbatim below as the reference (the two methods on subclasses of the
engines, the functions renamed).  This suite proves, over fuzzed designs
from the :mod:`repro.testing` builders, that

* the registry ``vhdl`` and ``verilog`` backends are **byte-identical**
  (content *and* file order) to the reference ``generate`` methods,
* the registry ``ir`` and ``tydi-ir`` backends' single files are
  byte-identical to the reference ``emit_project`` and ``emit_document``,
* the staged pipeline (per-implementation backend-output cache, cold and
  warm) assembles the same outputs as the uncached monolithic path, and
* the TPC-H suite of the paper gets the same treatment as the fuzzed
  designs.
"""

import random

import pytest

from repro.backends import get_backend
from repro.interchange.emit import (
    document_prelude,
    emit_implementation_block,
    emit_streamlet_block,
)
from repro.ir.emit import (
    emit_implementation,
    emit_streamlet,
    emit_type_declaration,
    named_type_declarations,
)
from repro.ir.model import Project
from repro.lang.compile import compile_sources
from repro.pipeline import StageCache
from repro.testing import build_random_design, mutate_design
from repro.verilog.backend import VerilogBackend
from repro.vhdl.backend import VhdlBackend
from repro.vhdl.signals import vhdl_identifier


class ReferenceVhdlBackend(VhdlBackend):
    def generate(self) -> dict[str, str]:
        """Generate all VHDL files for the project, sorted by file name.

        The sorted order makes the returned mapping deterministic regardless
        of the project's dict insertion history (implementations evaluated in
        a different order still produce an identical artefact set).
        """
        files: dict[str, str] = {}
        files[f"{vhdl_identifier(self.project.name)}_pkg.vhd"] = self.package_file()
        for implementation in self.project.implementations.values():
            files[f"{implementation.name}.vhd"] = self.implementation_file(implementation)
        return dict(sorted(files.items()))


class ReferenceVerilogBackend(VerilogBackend):
    def generate(self) -> dict[str, str]:
        """Generate all Verilog files for the project, sorted by file name."""
        files: dict[str, str] = {}
        files[f"{vhdl_identifier(self.project.name)}_defs.vh"] = self.defs_file()
        for implementation in self.project.implementations.values():
            files[f"{implementation.name}.v"] = self.implementation_file(implementation)
        return dict(sorted(files.items()))


def reference_emit_project(project: Project) -> str:
    """Emit the whole project as textual Tydi-IR."""
    sections: list[str] = [f"// Tydi-IR for project {project.name}"]
    named_types = named_type_declarations(project)
    for t in named_types.values():
        sections.append(emit_type_declaration(t))
    for streamlet in project.streamlets.values():
        sections.append(emit_streamlet(streamlet))
    for implementation in project.implementations.values():
        sections.append(emit_implementation(implementation))
    if project.top:
        sections.append(f"top {project.top};")
    return "\n\n".join(sections) + "\n"


def reference_emit_document(project: Project) -> str:
    """Render the complete interchange document for one project."""
    sections = [document_prelude(project)]
    for streamlet in project.streamlets.values():
        sections.append(emit_streamlet_block(streamlet))
    for implementation in project.implementations.values():
        sections.append(emit_implementation_block(implementation))
    if project.top:
        sections.append(f"top {project.top};")
    return "\n\n".join(sections) + "\n"


def _assert_registry_equals_reference(project: Project, label: object) -> None:
    for target, reference in (
        ("vhdl", ReferenceVhdlBackend(project).generate()),
        ("verilog", ReferenceVerilogBackend(project).generate()),
        ("ir", {f"{project.name}.tir": reference_emit_project(project)}),
        ("tydi-ir", {f"{project.name}.tir": reference_emit_document(project)}),
    ):
        registry = get_backend(target).emit(project)
        assert list(registry.items()) == list(reference.items()), (label, target)


#: Number of fuzzed designs (the acceptance criterion demands >= 30).
NUM_DESIGNS = 36


def _fuzzed_designs():
    for seed in range(NUM_DESIGNS):
        rng = random.Random(1000 + seed)
        yield seed, build_random_design(rng)


@pytest.mark.parametrize(
    "seed,sources",
    list(_fuzzed_designs()),
    ids=[f"design{seed}" for seed in range(NUM_DESIGNS)],
)
def test_registry_paths_byte_identical_to_legacy(seed, sources):
    project = compile_sources(sources, include_stdlib=False).project
    _assert_registry_equals_reference(project, seed)


def test_staged_outputs_equal_monolithic_cold_and_warm():
    """Cold staged, warm staged and monolithic backend outputs all agree."""
    targets = ("vhdl", "ir", "dot")
    stage_cache = StageCache()
    checked = 0
    for seed, sources in _fuzzed_designs():
        if seed % 4:  # a quarter of the corpus keeps this test fast
            continue
        monolithic = compile_sources(sources, include_stdlib=False, targets=targets)
        cold = stage_cache.compile(sources, {"include_stdlib": False, "targets": targets})
        warm = stage_cache.compile(sources, {"include_stdlib": False, "targets": targets})
        for result in (cold, warm):
            assert set(result.outputs) == set(targets)
            for target in targets:
                assert list(result.outputs[target].items()) == list(
                    monolithic.outputs[target].items()
                ), f"seed {seed}, target {target}"
        assert [s.name for s in cold.stages] == [s.name for s in monolithic.stages]
        checked += 1
    assert checked >= 5
    assert stage_cache.stats.backend_hits > 0


def test_one_file_edit_reuses_unit_outputs_and_stays_identical():
    """After a one-file edit the warm emission equals a cold monolithic
    compile of the edited design, while reusing unchanged units."""
    rng = random.Random(7)
    sources = build_random_design(rng, min_files=4, max_files=6)
    targets = ("vhdl", "dot")
    stage_cache = StageCache()
    stage_cache.compile(sources, {"include_stdlib": False, "targets": targets})

    edited, _ = mutate_design(rng, sources)
    stage_cache.stats.reset()
    staged = stage_cache.compile(edited, {"include_stdlib": False, "targets": targets})
    monolithic = compile_sources(edited, include_stdlib=False, targets=targets)
    for target in targets:
        assert list(staged.outputs[target].items()) == list(
            monolithic.outputs[target].items()
        )
    # A comment-only edit changes no implementation; a width edit changes a
    # few.  Either way at least one unit per backend must be a warm hit.
    assert stage_cache.stats.backend_hits >= 2


def test_tpch_suite_registry_equals_legacy(compiled_queries):
    for name, result in compiled_queries.items():
        _assert_registry_equals_reference(result.project, name)
