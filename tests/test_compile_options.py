"""Tests for :class:`repro.lang.compile.CompileOptions`, the strict
``normalize_sources`` input validation, and backend-option building
(``--backend-opt`` parsing, type coercion, did-you-mean errors)."""

from __future__ import annotations

import pickle

import pytest

from repro.backends import (
    DotBackend,
    DotBackendOptions,
    options_for_backend,
    parse_backend_opt_specs,
)
from repro.errors import TydiBackendError, TydiInputError
from repro.lang.compile import (
    CompileOptions,
    compile_sources,
    normalize_sources,
)
from repro.pipeline import CompileJob, fingerprint_sources

SOURCE = "type t = Stream(Bit(8), d=1);"


class TestNormalizeSourcesValidation:
    def test_accepts_pairs_lists_bare_strings_and_mappings(self):
        assert normalize_sources([(SOURCE, "a.td")]) == ((SOURCE, "a.td"),)
        assert normalize_sources([[SOURCE, "a.td"]]) == ((SOURCE, "a.td"),)
        assert normalize_sources([SOURCE]) == ((SOURCE, "source_0.td"),)
        assert normalize_sources({"a.td": SOURCE}) == ((SOURCE, "a.td"),)

    def test_wrong_arity_tuple_names_the_index(self):
        with pytest.raises(TydiInputError, match=r"sources\[1\].*3-element"):
            normalize_sources([(SOURCE, "a.td"), (SOURCE, "b.td", "extra")])

    def test_non_string_entries_name_the_index_and_types(self):
        with pytest.raises(TydiInputError, match=r"sources\[0\].*int"):
            normalize_sources([(42, "a.td")])
        with pytest.raises(TydiInputError, match=r"sources\[0\].*PosixPath|sources\[0\].*str"):
            import pathlib

            normalize_sources([(SOURCE, pathlib.Path("a.td"))])
        with pytest.raises(TydiInputError, match=r"sources\[2\]"):
            normalize_sources([SOURCE, (SOURCE, "b.td"), None])

    def test_single_string_argument_rejected(self):
        with pytest.raises(TydiInputError, match="single string"):
            normalize_sources(SOURCE)

    def test_duplicate_filenames_rejected_with_both_indices(self):
        with pytest.raises(TydiInputError, match=r"sources\[1\].*duplicate.*sources\[0\]"):
            normalize_sources([(SOURCE, "a.td"), ("other", "a.td")])

    def test_compile_sources_surfaces_the_input_error(self):
        with pytest.raises(TydiInputError, match=r"sources\[0\]"):
            compile_sources([(SOURCE,)])


class TestCompileOptions:
    def test_normalisation_on_construction(self):
        options = CompileOptions(top_args=[1, 2], targets=["vhdl", "vhdl", "dot"])
        assert options.top_args == (1, 2)
        assert options.targets == ("vhdl", "dot")

    def test_as_dict_round_trips_through_from_kwargs(self):
        options = CompileOptions(top="x", sugaring=False, targets=("ir",))
        assert CompileOptions.from_kwargs(**options.as_dict()) == options

    def test_unknown_kwarg_gets_did_you_mean(self):
        with pytest.raises(TydiInputError, match="did you mean 'sugaring'"):
            CompileOptions.from_kwargs(sugarring=False)
        with pytest.raises(TydiInputError, match="unknown compile option"):
            CompileOptions.from_kwargs(definitely_not_an_option=1)

    def test_coerce_forms(self):
        assert CompileOptions.coerce(None) == CompileOptions()
        assert CompileOptions.coerce({"top": "x"}) == CompileOptions(top="x")
        options = CompileOptions(sugaring=False)
        assert CompileOptions.coerce(options) is options
        with pytest.raises(TydiInputError):
            CompileOptions.coerce(42)

    def test_replace_validates(self):
        options = CompileOptions()
        assert options.replace(run_drc=False).run_drc is False
        with pytest.raises(TydiInputError, match="did you mean"):
            options.replace(run_drcc=False)

    def test_fingerprint_matches_job_and_cache_paths(self):
        sources = ((SOURCE, "a.td"),)
        options = CompileOptions(project_name="demo", targets=("ir",))
        job = CompileJob(name="demo", sources=sources, options=options)
        assert options.fingerprint(sources) == job.fingerprint()
        assert options.fingerprint(sources) == fingerprint_sources(sources, options)
        assert options.fingerprint(sources) == fingerprint_sources(
            sources, options.as_dict()
        )

    def test_backend_options_participate_in_fingerprint(self):
        sources = ((SOURCE, "a.td"),)
        plain = CompileOptions(targets=("dot",))
        tweaked = CompileOptions(
            targets=("dot",), backend_options={"dot": {"rankdir": "TB"}}
        )
        assert plain.fingerprint(sources) != tweaked.fingerprint(sources)
        # ... and the normal form is order-independent and deduplicated.
        also = CompileOptions(
            targets=("dot",), backend_options=[("dot", {"rankdir": "TB"})]
        )
        assert also.fingerprint(sources) == tweaked.fingerprint(sources)

    def test_options_mixed_with_keywords_rejected(self):
        with pytest.raises(TydiInputError, match="not both"):
            compile_sources([SOURCE], options=CompileOptions(), sugaring=False)

    def test_options_object_drives_compile(self):
        result = compile_sources(
            [(SOURCE + "\nstreamlet s { i: t in, o: t out, }\nimpl im of s { i => o, }\ntop im;", "a.td")],
            options=CompileOptions(project_name="named", include_stdlib=False),
        )
        assert result.project.name == "named"

    def test_picklable(self):
        options = CompileOptions(
            targets=("dot",), backend_options={"dot": {"rankdir": "TB"}}
        )
        clone = pickle.loads(pickle.dumps(options))
        assert clone == options
        assert clone.backend_options_for("dot").rankdir == "TB"

    def test_backend_options_for(self):
        options = CompileOptions(backend_options={"dot": {"rankdir": "TB"}})
        assert options.backend_options_for("dot").rankdir == "TB"
        assert options.backend_options_for("vhdl") is None


class TestBackendOptionBuilding:
    def test_unknown_backend_name_rejected_up_front(self):
        with pytest.raises(TydiBackendError, match="unknown backend 'systemc'"):
            CompileOptions(backend_options={"systemc": {"x": "1"}})

    def test_unknown_key_gets_did_you_mean(self):
        with pytest.raises(TydiBackendError, match="did you mean 'rankdir'"):
            options_for_backend(DotBackend, {"rankdirr": "TB"})

    def test_unknown_key_lists_valid_options(self):
        with pytest.raises(TydiBackendError, match="highlight, rankdir, show_types"):
            options_for_backend(DotBackend, {"nope": "1"})

    def test_string_coercion_bool_and_tuple(self):
        options = options_for_backend(
            DotBackend, {"show_types": "false", "highlight": "a,b"}
        )
        assert options.show_types is False
        assert options.highlight == ("a", "b")
        assert options_for_backend(DotBackend, {"highlight": ""}).highlight == ()

    def test_bad_bool_value_rejected(self):
        with pytest.raises(TydiBackendError, match="expected a boolean"):
            options_for_backend(DotBackend, {"show_types": "maybe"})

    def test_typed_values_pass_through(self):
        options = options_for_backend(DotBackend, {"show_types": False})
        assert options.show_types is False

    def test_existing_instance_accepted(self):
        instance = DotBackendOptions(rankdir="TB")
        options = CompileOptions(backend_options=[("dot", instance)])
        assert options.backend_options_for("dot") is instance

    def test_wrong_instance_type_rejected(self):
        with pytest.raises(TydiInputError, match="expects DotBackendOptions"):
            CompileOptions(backend_options=[("dot", object())])


class TestBackendOptSpecParsing:
    def test_parse_specs(self):
        parsed = parse_backend_opt_specs(
            ["dot.rankdir=TB", "dot.show_types=false", "vhdl.x=a=b"]
        )
        assert parsed == {
            "dot": {"rankdir": "TB", "show_types": "false"},
            "vhdl": {"x": "a=b"},
        }

    def test_last_value_wins(self):
        parsed = parse_backend_opt_specs(["dot.rankdir=TB", "dot.rankdir=LR"])
        assert parsed == {"dot": {"rankdir": "LR"}}

    @pytest.mark.parametrize(
        "spec", ["rankdir=TB", "dot.rankdir", "dot.=TB", ".rankdir=TB", ""]
    )
    def test_malformed_specs_rejected(self, spec):
        with pytest.raises(TydiBackendError, match="name.key=value"):
            parse_backend_opt_specs([spec])


class TestOptionsKeywordConflict:
    def test_equal_but_not_identical_defaults_are_not_conflicts(self):
        # [] is the default top_args after normalisation; () after dedup etc.
        result = compile_sources(
            [SOURCE], options=CompileOptions(include_stdlib=False), top_args=[], targets=()
        )
        assert result.project is not None

    def test_conflict_error_names_the_fields(self):
        with pytest.raises(TydiInputError, match="sugaring"):
            compile_sources([SOURCE], options=CompileOptions(), sugaring=False)
