"""Tests for the ``tydi-compile`` command-line interface."""

import json
import os
import pathlib

import pytest

from repro.cli import build_arg_parser, main


SOURCE = """
type byte_t = Stream(Bit(8), d=1);
streamlet echo_s { i: byte_t in, o: byte_t out, }
impl echo_i of echo_s { i => o, }
top echo_i;
"""


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "design.td"
    path.write_text(SOURCE)
    return path


class TestCli:
    def test_arg_parser_defaults(self):
        args = build_arg_parser().parse_args(["x.td"])
        assert args.sources == ["x.td"]
        assert args.top is None
        assert not args.no_stdlib

    def test_successful_compile(self, design_file, capsys):
        assert main([str(design_file)]) == 0
        out = capsys.readouterr().out
        assert "[parse]" in out and "[drc]" in out

    def test_stats_flag(self, design_file, capsys):
        assert main([str(design_file), "--stats"]) == 0
        assert "streamlets:" in capsys.readouterr().out

    def test_ir_output_file(self, design_file, tmp_path):
        ir_path = tmp_path / "out.tir"
        assert main([str(design_file), "--ir-out", str(ir_path)]) == 0
        assert "streamlet echo_s" in ir_path.read_text()

    def test_vhdl_output_directory(self, design_file, tmp_path):
        vhdl_dir = tmp_path / "vhdl"
        assert main([str(design_file), "--vhdl-dir", str(vhdl_dir)]) == 0
        files = list(vhdl_dir.glob("*.vhd"))
        assert any(f.name == "echo_i.vhd" for f in files)

    def test_compile_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.td"
        bad.write_text("streamlet s { i: Mystery in, }\nimpl i_impl of s {}\ntop i_impl;")
        assert main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, literal, column",
        [("const x = 1\u00b2;", "1\u00b2", 11), ("\u00b2", "\u00b2", 1), ("const y = 1.5e\u00b2;", "1.5e\u00b2", 11)],
    )
    def test_unreadable_number_literal_is_a_parse_error(self, tmp_path, capsys, text, literal, column):
        # str.isdigit accepts '²', int() and float() do not: no traceback.
        path = tmp_path / "d.td"
        path.write_text(text, encoding="utf-8")
        assert main([str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error (parse): {path}:1:{column}: invalid number literal {literal!r}\n"

    def test_no_sugaring_flag_propagates(self, tmp_path, capsys):
        source = """
        type t = Stream(Bit(4), d=1);
        streamlet wide_s { a: t out, b: t out, }
        external impl wide_i of wide_s;
        streamlet top_s { o: t out, }
        impl top_i of top_s { instance w(wide_i), w.a => o, }
        top top_i;
        """
        path = tmp_path / "d.td"
        path.write_text(source)
        # Without sugaring the unused output makes the DRC fail.
        assert main([str(path), "--no-sugaring"]) == 1
        assert main([str(path)]) == 0

    def test_same_basename_in_different_dirs_distinguishable(self, tmp_path, capsys, monkeypatch):
        """Regression: sources used to be keyed by basename only, making two
        inputs named ``top.td`` in different directories indistinguishable."""
        monkeypatch.chdir(tmp_path)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
        (tmp_path / "a" / "top.td").write_text("type good_t = Stream(Bit(8), d=1);")
        # The failing file: its diagnostics must name b/top.td, not just top.td.
        (tmp_path / "b" / "top.td").write_text("type bad_t = Stream(Mystery, d=1);\ntop nothing;")
        assert main([os.path.join("a", "top.td"), os.path.join("b", "top.td")]) == 1
        err = capsys.readouterr().err
        assert os.path.join("b", "top.td") in err


class TestCliCache:
    def test_cache_dir_single_design(self, design_file, tmp_path, capsys, disk_rows):
        cache_dir = tmp_path / ".tydi-cache"
        assert main([str(design_file), "--cache-dir", str(cache_dir)]) == 0
        assert disk_rows(cache_dir).keys("eval")
        capsys.readouterr()
        # Warm run: same design served from the on-disk store.
        assert main([str(design_file), "--cache-dir", str(cache_dir), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"] == {"remote": None}
        assert payload["stage_cache"]["evaluate_hits"] == 1
        assert payload["stage_cache"]["disk_hits"] == 1

    def test_warm_vhdl_dir_renders_no_unit(self, design_file, tmp_path, monkeypatch):
        """``--vhdl-dir`` reads the ``vhdl`` backend through the cache: a
        second run over the same ``--cache-dir`` renders no implementation
        and writes the same files."""
        from repro.backends.vhdl import VhdlFilesBackend

        cache_dir = tmp_path / ".tydi-cache"
        first, second = tmp_path / "v1", tmp_path / "v2"
        assert main([str(design_file), "--cache-dir", str(cache_dir), "--vhdl-dir", str(first)]) == 0
        rendered = []
        emit_unit = VhdlFilesBackend.emit_unit

        def counting_emit_unit(self, project, implementation):
            rendered.append(implementation.name)
            return emit_unit(self, project, implementation)

        monkeypatch.setattr(VhdlFilesBackend, "emit_unit", counting_emit_unit)
        assert main([str(design_file), "--cache-dir", str(cache_dir), "--vhdl-dir", str(second)]) == 0
        assert rendered == []
        names = sorted(path.name for path in first.iterdir())
        assert "echo_i.vhd" in names
        assert sorted(path.name for path in second.iterdir()) == names
        for name in names:
            assert (second / name).read_bytes() == (first / name).read_bytes()

    def test_json_output_single_design(self, design_file, capsys):
        assert main([str(design_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["name"] for s in payload["stages"]] == ["parse", "evaluate", "sugaring", "drc", "ir"]
        assert payload["statistics"]["streamlets"] >= 1
        assert payload["cache"] is None
        assert payload["stage_cache"] is None

    def test_max_cache_mb_reports_stage_stats(self, design_file, tmp_path, capsys, disk_rows):
        cache_dir = tmp_path / ".tydi-cache"
        args = [str(design_file), "--cache-dir", str(cache_dir), "--max-cache-mb", "64", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage_cache"]["parse_misses"] == 1
        assert disk_rows(cache_dir).rows() > 0

    def test_max_cache_mb_zero_evicts_everything(self, design_file, tmp_path, capsys, disk_rows):
        """A zero budget still compiles; it just keeps nothing on disk."""
        cache_dir = tmp_path / ".tydi-cache"
        args = [str(design_file), "--cache-dir", str(cache_dir), "--max-cache-mb", "0"]
        assert main(args) == 0
        assert disk_rows(cache_dir).rows() == 0 and disk_rows(cache_dir).ledger() == 0

    def test_negative_max_cache_mb_rejected(self, design_file, capsys):
        assert main([str(design_file), "--cache-dir", "x", "--max-cache-mb", "-1"]) == 1
        assert "--max-cache-mb" in capsys.readouterr().err

    def test_max_cache_mb_without_cache_dir_rejected(self, design_file, capsys):
        """The budget flag must not be silently ignored without a cache dir."""
        assert main([str(design_file), "--max-cache-mb", "64"]) == 1
        assert "requires --cache-dir" in capsys.readouterr().err


class TestCliBatch:
    @pytest.fixture()
    def design_dir(self, tmp_path):
        for width in (2, 4, 8):
            (tmp_path / f"w{width}.td").write_text(
                f"type t = Stream(Bit({width}), d=1);\n"
                "streamlet s { i: t in, o: t out, }\n"
                "impl im of s { i => o, }\n"
                "top im;\n"
            )
        return tmp_path

    def _paths(self, design_dir):
        return sorted(str(p) for p in design_dir.glob("*.td"))

    def test_batch_compiles_every_design(self, design_dir, capsys):
        assert main(["--batch", *self._paths(design_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 3
        assert "batch: 3/3 succeeded" in out

    def test_batch_jobs_and_executor_flags(self, design_dir, capsys):
        argv = ["--batch", "--jobs", "2", "--executor", "serial", *self._paths(design_dir)]
        assert main(argv) == 0
        assert "batch: 3/3 succeeded" in capsys.readouterr().out

    def test_batch_failure_sets_exit_code(self, design_dir, capsys):
        bad = design_dir / "bad.td"
        bad.write_text("streamlet s { i: Mystery in, }\nimpl im of s {}\ntop im;\n")
        assert main(["--batch", *self._paths(design_dir)]) == 1
        out = capsys.readouterr().out
        assert "[failed] bad" in out and out.count("[ok]") == 3

    def test_batch_json_stats(self, design_dir, capsys):
        cache_dir = design_dir / ".tydi-cache"
        argv = ["--batch", "--cache-dir", str(cache_dir), "--json", *self._paths(design_dir)]
        assert main(argv) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["batch"]["jobs"] == 3
        assert cold["batch"]["failed"] == 0
        assert cold["stage_cache"]["evaluate_misses"] == 3

        # Warm run: every design is one snapshot hit from disk.
        assert main(argv) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["batch"]["succeeded"] == 3
        assert warm["stage_cache"]["evaluate_hits"] == 3
        assert warm["stage_cache"]["disk_hits"] == 3
        assert warm["stage_cache"]["parse_misses"] == 0
        assert all(d["status"] == "compiled" for d in warm["designs"])

    def test_batch_process_workers_share_the_remote_cache(self, design_dir, tmp_path, capsys, disk_rows):
        from repro.server.cachesvc import CacheServerThread

        with CacheServerThread() as server:
            for run in ("cold", "warm"):
                argv = [
                    "--batch", "--executor", "process", "--jobs", "2",
                    "--remote-cache", server.endpoint,
                    "--cache-dir", str(tmp_path / "caches" / run),
                    *self._paths(design_dir),
                ]
                assert main(argv) == 0
                assert "batch: 3/3 succeeded" in capsys.readouterr().out
            assert server.store.stats_snapshot()["hits"] == 3
        assert len(disk_rows(tmp_path / "caches" / "warm").keys("eval")) == 3

    def test_batch_vhdl_dir_per_design(self, design_dir, tmp_path, capsys):
        vhdl_dir = tmp_path / "vhdl"
        assert main(["--batch", "--vhdl-dir", str(vhdl_dir), *self._paths(design_dir)]) == 0
        assert sorted(p.name for p in vhdl_dir.iterdir()) == ["w2", "w4", "w8"]
        assert any(f.suffix == ".vhd" for f in (vhdl_dir / "w2").iterdir())
        assert "VHDL file(s)" in capsys.readouterr().out

    def test_batch_stats_flag(self, design_dir, capsys):
        assert main(["--batch", "--stats", *self._paths(design_dir)]) == 0
        out = capsys.readouterr().out
        assert out.count("streamlets:") == 3

    def test_batch_ir_out_directory(self, design_dir, tmp_path):
        out_dir = tmp_path / "ir"
        assert main(["--batch", "--ir-out", str(out_dir), *self._paths(design_dir)]) == 0
        names = sorted(p.name for p in out_dir.glob("*.tir"))
        assert names == ["w2.tir", "w4.tir", "w8.tir"]
        assert "impl im" in (out_dir / "w2.tir").read_text()

    def test_batch_unreadable_file_is_isolated(self, design_dir, capsys):
        """A missing input is one failed design, not an aborted batch."""
        argv = ["--batch", str(design_dir / "missing.td"), *self._paths(design_dir)]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "[failed] missing (read): cannot read" in out
        assert out.count("[ok]") == 3  # the readable designs still compiled

    def test_batch_ir_out_conflicting_file_clean_error(self, design_dir, tmp_path, capsys):
        conflict = tmp_path / "out.tir"
        conflict.write_text("already a file")
        argv = ["--batch", "--ir-out", str(conflict), *self._paths(design_dir)]
        assert main(argv) == 1
        assert "cannot create directory" in capsys.readouterr().err

    def test_batch_same_basename_gets_unique_names(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "top.td").write_text(
                "type t = Stream(Bit(4), d=1);\n"
                "streamlet s { i: t in, o: t out, }\n"
                "impl im of s { i => o, }\n"
                "top im;\n"
            )
        argv = ["--batch", str(tmp_path / "a" / "top.td"), str(tmp_path / "b" / "top.td")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("[ok]") == 2


class TestCliBackends:
    def test_list_backends(self, capsys):
        assert main(["--list-backends"]) == 0
        out = capsys.readouterr().out
        for name in ("vhdl", "verilog", "ir", "tydi-ir", "dot"):
            assert name in out
        # Each backend's option schema rides along (name, type, default).
        assert "--backend-opt dot.rankdir=..." in out
        assert "(str, default 'LR')" in out

    def test_list_backends_json(self, capsys):
        import json as json_module

        assert main(["--list-backends", "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        by_name = {entry["name"]: entry for entry in payload["backends"]}
        assert {"vhdl", "verilog", "ir", "tydi-ir", "dot"} <= set(by_name)
        dot_options = {option["name"]: option for option in by_name["dot"]["options"]}
        assert dot_options["rankdir"] == {
            "name": "rankdir",
            "type": "str",
            "default": "LR",
        }
        assert dot_options["show_types"]["type"] == "bool"
        assert by_name["vhdl"]["options"] == []

    def test_no_sources_without_list_backends_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_target_clean_error(self, design_file, capsys):
        assert main([str(design_file), "--target", "systemc"]) == 1
        err = capsys.readouterr().err
        assert "unknown backend 'systemc'" in err and "vhdl" in err

    def test_single_target_streams_to_stdout(self, design_file, capsys):
        """`tydi-compile --target dot x.td | dot -Tsvg` must pipe clean DOT:
        outputs on stdout, stage log on stderr."""
        assert main([str(design_file), "--target", "dot"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("digraph")
        assert "[parse]" in captured.err and "[parse]" not in captured.out

    def test_all_three_targets_one_invocation_out_dir(self, design_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = [
            str(design_file),
            "--target", "vhdl", "--target", "dot", "--target", "ir",
            "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["dot", "ir", "vhdl"]
        assert any(f.suffix == ".vhd" for f in (out_dir / "vhdl").iterdir())
        assert (out_dir / "dot" / "design.dot").read_text().startswith("digraph")
        assert "streamlet echo_s" in (out_dir / "ir" / "design.tir").read_text()

    def test_json_reports_outputs_and_backend_cache_stats(self, design_file, tmp_path, capsys):
        cache_dir = tmp_path / ".tydi-cache"
        argv = [
            str(design_file),
            "--target", "vhdl", "--target", "dot", "--target", "ir",
            "--cache-dir", str(cache_dir), "--json",
        ]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["outputs"]) == {"vhdl", "dot", "ir"}
        assert payload["outputs"]["dot"] == ["design.dot"]
        assert [s["name"] for s in payload["stages"]][-3:] == [
            "backend:vhdl", "backend:dot", "backend:ir",
        ]
        assert payload["stage_cache"]["backend_misses"] > 0
        assert payload["stage_cache"]["backend_hits"] == 0

    def test_duplicate_targets_collapse(self, design_file, capsys):
        assert main([str(design_file), "--target", "dot", "--target", "dot"]) == 0
        out = capsys.readouterr().out
        assert out.count("digraph") == 1

    def test_batch_targets_out_dir(self, tmp_path, capsys):
        for width in (2, 4):
            (tmp_path / f"w{width}.td").write_text(
                f"type t = Stream(Bit({width}), d=1);\n"
                "streamlet s { i: t in, o: t out, }\n"
                "impl im of s { i => o, }\n"
                "top im;\n"
            )
        out_dir = tmp_path / "out"
        argv = [
            "--batch", "--target", "vhdl", "--target", "dot",
            "--out-dir", str(out_dir),
            str(tmp_path / "w2.td"), str(tmp_path / "w4.td"),
        ]
        assert main(argv) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["w2", "w4"]
        assert sorted(p.name for p in (out_dir / "w2").iterdir()) == ["dot", "vhdl"]
        assert "backend output file(s)" in capsys.readouterr().out

    def test_batch_json_includes_output_counts(self, tmp_path, capsys):
        (tmp_path / "d.td").write_text(
            "type t = Stream(Bit(8), d=1);\n"
            "streamlet s { i: t in, o: t out, }\n"
            "impl im of s { i => o, }\n"
            "top im;\n"
        )
        argv = ["--batch", "--target", "vhdl", "--json", str(tmp_path / "d.td")]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["designs"][0]["outputs"] == {"vhdl": 2}

    def test_out_dir_without_target_rejected(self, design_file, capsys):
        assert main([str(design_file), "--out-dir", "out"]) == 1
        assert "--out-dir requires at least one --target" in capsys.readouterr().err

    def test_batch_targets_without_out_dir_hint(self, tmp_path, capsys):
        (tmp_path / "d.td").write_text(
            "type t = Stream(Bit(8), d=1);\n"
            "streamlet s { i: t in, o: t out, }\n"
            "impl im of s { i => o, }\n"
            "top im;\n"
        )
        assert main(["--batch", "--target", "vhdl", str(tmp_path / "d.td")]) == 0
        out = capsys.readouterr().out
        assert "pass --out-dir to write them" in out

    def test_stdout_streaming_keeps_legacy_write_messages_off_stdout(self, design_file, tmp_path, capsys):
        """Regression: `--target dot --ir-out x | dot -Tsvg` must not append
        'wrote Tydi-IR to ...' after the digraph on stdout."""
        ir_path = tmp_path / "x.tir"
        vhdl_dir = tmp_path / "vhdl"
        argv = [
            str(design_file), "--target", "dot",
            "--ir-out", str(ir_path), "--vhdl-dir", str(vhdl_dir),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("digraph")
        assert "wrote" not in captured.out
        assert "wrote Tydi-IR" in captured.err
        assert ir_path.exists()


class TestCliBackendOpts:
    def test_backend_opt_changes_dot_output(self, design_file, capsys):
        assert main([str(design_file), "--target", "dot"]) == 0
        assert 'rankdir="LR"' in capsys.readouterr().out
        assert main([str(design_file), "--target", "dot", "--backend-opt", "dot.rankdir=TB"]) == 0
        assert 'rankdir="TB"' in capsys.readouterr().out

    def test_backend_opt_boolean_coercion(self, design_file, capsys):
        assert main([
            str(design_file), "--target", "dot", "--backend-opt", "dot.show_types=false",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_backend_opt_repeatable_across_backends(self, design_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = [
            str(design_file),
            "--target", "dot", "--target", "ir",
            "--backend-opt", "dot.rankdir=TB",
            "--backend-opt", "dot.highlight=echo",
            "--out-dir", str(out_dir),
        ]
        assert main(argv) == 0
        dot_text = (out_dir / "dot" / "design.dot").read_text()
        assert 'rankdir="TB"' in dot_text

    def test_backend_opt_unknown_key_did_you_mean(self, design_file, capsys):
        assert main([
            str(design_file), "--target", "dot", "--backend-opt", "dot.rankdirr=TB",
        ]) == 1
        err = capsys.readouterr().err
        assert "did you mean 'rankdir'" in err

    def test_backend_opt_unknown_backend_clean_error(self, design_file, capsys):
        assert main([
            str(design_file), "--target", "dot", "--backend-opt", "systemc.x=1",
        ]) == 1
        assert "unknown backend 'systemc'" in capsys.readouterr().err

    def test_backend_opt_malformed_spec_clean_error(self, design_file, capsys):
        assert main([str(design_file), "--backend-opt", "rankdir=TB"]) == 1
        assert "name.key=value" in capsys.readouterr().err

    def test_backend_opt_bad_value_clean_error(self, design_file, capsys):
        assert main([
            str(design_file), "--target", "dot", "--backend-opt", "dot.show_types=maybe",
        ]) == 1
        assert "expected a boolean" in capsys.readouterr().err

    def test_backend_opt_in_batch_mode(self, tmp_path, capsys):
        (tmp_path / "d.td").write_text(
            "type t = Stream(Bit(8), d=1);\n"
            "streamlet s { i: t in, o: t out, }\n"
            "impl im of s { i => o, }\n"
            "top im;\n"
        )
        out_dir = tmp_path / "out"
        argv = [
            "--batch", "--target", "dot",
            "--backend-opt", "dot.rankdir=TB",
            "--out-dir", str(out_dir),
            str(tmp_path / "d.td"),
        ]
        assert main(argv) == 0
        dot_text = (out_dir / "d" / "dot" / "d.dot").read_text()
        assert 'rankdir="TB"' in dot_text

    def test_backend_opt_splits_the_cache_address(self, design_file, tmp_path, capsys):
        """Different backend options are different artefacts: no false hit."""
        cache_dir = tmp_path / ".tydi-cache"
        base = [str(design_file), "--target", "dot", "--cache-dir", str(cache_dir), "--json"]
        assert main(base + ["--backend-opt", "dot.rankdir=TB"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(base + ["--backend-opt", "dot.rankdir=LR"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage_cache"]["evaluate_hits"] == 1  # the frontend is shared
        assert payload["stage_cache"]["backend_hits"] == 0  # a different unit address
        assert main(base + ["--backend-opt", "dot.rankdir=LR"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stage_cache"]["backend_hits"] >= 1  # same options, warm
        assert payload["stage_cache"]["backend_misses"] == 0
