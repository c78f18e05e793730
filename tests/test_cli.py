"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_route_defaults(self):
        args = build_parser().parse_args(["route", "18test5"])
        assert args.config == "fastgr_l"
        assert args.scale == 0.25

    def test_bad_config_rejected(self):
        for options in (
            ["--config", "magic"],
            ["--executor", "ordered"],
            ["--cost-engine", "full"],
            ["--no-pattern-batching"],
            ["--no-maze-batching"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["route", "x", *options])
            assert excinfo.value.code == 2


class TestRoute:
    def test_route_benchmark(self, capsys):
        code = main(["route", "18test5", "--scale", "0.1", "--config", "fastgr_h"])
        out = capsys.readouterr().out
        assert code == 0
        assert "score (Eq.15)" in out
        assert "connectivity" in out

    def test_route_iterations_override(self, capsys):
        code = main(
            ["route", "18test5", "--scale", "0.1", "--iterations", "0"]
        )
        assert code == 0
        assert "maze stage    : 0.000" in capsys.readouterr().out

    def test_route_unknown_source_errors(self):
        with pytest.raises(SystemExit, match="neither a benchmark"):
            main(["route", "does-not-exist"])

    def test_route_design_file(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        main(["generate", "18test5", "--scale", "0.1", "-o", str(path)])
        capsys.readouterr()
        code = main(["route", str(path), "--config", "cugr"])
        assert code == 0
        assert "cugr" in capsys.readouterr().out

    def test_route_writes_guides(self, tmp_path, capsys):
        guide_path = tmp_path / "out.guide"
        code = main(
            ["route", "18test5", "--scale", "0.1", "--guides", str(guide_path)]
        )
        assert code == 0
        text = guide_path.read_text()
        assert text.count("(") > 0 and "M" in text


class TestGenerateAndInfo:
    def test_generate_writes_file(self, tmp_path, capsys):
        path = tmp_path / "gen.txt"
        code = main(["generate", "18test5m", "--scale", "0.1", "-o", str(path)])
        assert code == 0
        assert path.exists()
        assert "wrote" in capsys.readouterr().out

    def test_info_benchmark(self, capsys):
        code = main(["info", "18test5", "--scale", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "nets" in out and "largest net" in out

    def test_info_file(self, tmp_path, capsys):
        path = tmp_path / "d.txt"
        main(["generate", "18test5", "--scale", "0.1", "-o", str(path)])
        capsys.readouterr()
        code = main(["info", str(path)])
        assert code == 0
        assert "18test5" in capsys.readouterr().out


class TestEco:
    def test_eco_verify_is_bit_identical(self, capsys):
        code = main(["eco", "18test5", "--scale", "0.05", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "eco re-route" in out
        assert "bit-identical" in out
