"""Tests for the high-level API and the command-line front end."""

import pytest

from repro import analyze_stg, encode_stg
from repro.bench_stg import generators as gen
from repro.cli import main
from repro.stg import write_g


class TestAPI:
    def test_analyze_reports_conflicts(self):
        info = analyze_stg(gen.vme_controller())
        assert info["states"] == 14
        assert info["csc_pairs"] == 1
        assert info["consistent"] is True

    def test_encode_vme(self):
        report = encode_stg(gen.vme_controller(), resynthesize=True)
        assert report.solved
        assert report.inserted_signals == ["csc0"]
        assert report.area_literals and report.area_literals > 0
        assert report.encoded_stg is not None
        row = report.table_row()
        assert row["benchmark"] == "vme"
        assert row["solved"] is True
        assert row["area"] == report.area_literals

    def test_encode_without_logic(self):
        report = encode_stg(gen.vme_controller(), estimate_logic=False)
        assert report.circuit is None
        assert report.area_literals is None

    def test_encode_unsolvable_strict_case(self):
        report = encode_stg(gen.toggle_element())
        assert not report.solved
        assert report.circuit is None


class TestCLI:
    def _write(self, tmp_path, stg, name="input.g"):
        path = tmp_path / name
        write_g(stg, str(path))
        return str(path)

    def test_info_command(self, tmp_path, capsys):
        path = self._write(tmp_path, gen.vme_controller())
        assert main(["info", path]) == 0
        output = capsys.readouterr().out
        assert "csc_pairs" in output

    def test_solve_command_writes_encoded_stg(self, tmp_path, capsys):
        path = self._write(tmp_path, gen.vme_controller())
        out_path = str(tmp_path / "encoded.g")
        code = main(["solve", path, "-o", out_path, "--equations"])
        assert code == 0
        output = capsys.readouterr().out
        assert "csc0" in output
        assert "[" in output  # equations printed
        from repro.stg import read_g_file

        encoded = read_g_file(out_path)
        assert "csc0" in encoded.internal_signals

    def test_solve_unsolved_returns_nonzero(self, tmp_path):
        path = self._write(tmp_path, gen.toggle_element())
        assert main(["solve", path, "--no-logic"]) == 2

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        output = capsys.readouterr().out
        assert "vme2int" in output

    def test_bench_run(self, capsys):
        assert main(["bench", "vme2int"]) == 0
        output = capsys.readouterr().out
        assert "solved" in output

    def test_bench_relaxed_flag(self, capsys):
        # a relaxed library row runs with allow_input_delay, so it solves
        code = main(["bench", "mod4-counter", "--enlarge-concurrency", "--bricks", "regions"])
        assert code == 0
        assert "solved       : True" in capsys.readouterr().out

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_is_single_sourced(self):
        # pyproject.toml must defer to repro.__version__ instead of
        # carrying its own copy (the PR-2 version-skew fix).
        import pathlib

        import repro

        pyproject = (
            pathlib.Path(repro.__file__).resolve().parents[2] / "pyproject.toml"
        ).read_text()
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = { attr = "repro.__version__" }' in pyproject
        assert repro.__version__ == "0.8.0"

    def test_package_exports_load_lazily(self):
        # ``import repro`` alone loads neither the API layer nor numpy,
        # and every exported name still resolves
        import subprocess
        import sys

        probe = (
            "import sys, repro\n"
            "print('numpy' in sys.modules, 'repro.api' in sys.modules)\n"
            "missing = [n for n in repro.__all__ if getattr(repro, n, None) is None]\n"
            "print(missing, 'repro.api' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout.split("\n")
        assert out[:2] == ["False False", "[] True"]

    def test_cli_import_leaves_numpy_and_the_solver_unloaded(self):
        # every command imports the layers it runs when it starts
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli\n"
            "print(sorted(m for m in ('numpy', 'repro.api', 'repro.core.solver',"
            " 'repro.engine.batch') if m in sys.modules))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_census_on_file(self, tmp_path, capsys):
        path = self._write(tmp_path, gen.vme_controller())
        assert main(["census", path]) == 0
        output = capsys.readouterr().out
        assert "states" in output and ": 14" in output

    def test_census_on_infeasible_benchmark(self, capsys):
        assert main(["census", "--benchmark", "par16", "--table", "table1"]) == 0
        output = capsys.readouterr().out
        assert "131074" in output

    def test_census_and_check_csc_print_the_component_count(self, capsys):
        import re

        assert main(["census", "--benchmark", "pipe8", "--table", "table1"]) == 0
        assert re.search(r"^components\s+: 8$", capsys.readouterr().out, re.M)
        assert main(["check-csc", "--benchmark", "pipe8", "--table", "table1"]) == 2
        assert re.search(r"^components\s+: 8$", capsys.readouterr().out, re.M)
        assert main(["census", "--benchmark", "par16", "--table", "table1"]) == 0
        assert re.search(r"^components\s+: 1$", capsys.readouterr().out, re.M)

    def test_census_requires_exactly_one_input(self, tmp_path, capsys):
        assert main(["census"]) == 2
        path = self._write(tmp_path, gen.vme_controller())
        assert main(["census", path, "--benchmark", "vme2int"]) == 2

    def test_check_csc_reports_conflicts_and_witnesses(self, tmp_path, capsys):
        path = self._write(tmp_path, gen.vme_controller())
        assert main(["check-csc", path, "--witnesses", "1"]) == 2  # conflicts
        output = capsys.readouterr().out
        assert "csc_pairs            : 1" in output
        assert "witness 1:" in output
        # detection-only runs compute the conflict core too: the verdict
        # schema matches the hybrid path's (never "core_states: None")
        assert "core_states          : 14" in output
        assert "None" not in output

    def test_check_csc_clean_case_returns_zero(self, tmp_path, capsys):
        path = self._write(tmp_path, gen.handshake_wire_chain(2))
        assert main(["check-csc", path]) == 0
        output = capsys.readouterr().out
        assert "csc_holds            : True" in output
        assert "core_states          : 0" in output

    def test_bench_engine_symbolic(self, capsys):
        assert main(["bench", "vme2int", "--engine", "symbolic"]) == 0
        output = capsys.readouterr().out
        assert "mode" in output and "hybrid" in output

    def test_bench_engine_symbolic_infeasible_row(self, capsys):
        code = main(["bench", "pipe16", "--table", "table1", "--engine", "symbolic",
                     "--max-signals", "0"])
        assert code == 2  # verdict: conflicts remain (detection-only)
        output = capsys.readouterr().out
        assert "2821109907456" in output

    def test_bench_all_symbolic_smoke(self, capsys):
        code = main(["bench", "--all", "--engine", "symbolic", "--smallest", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "jobs=1" in output

    def test_bench_all_with_timeout_reports_timeouts(self, capsys):
        code = main(
            ["bench", "--all", "--smallest", "2", "--timeout", "1e-9", "--max-states", "500"]
        )
        assert code == 0  # timeouts are a legitimate outcome, not a crash
        output = capsys.readouterr().out
        assert "TIMEOUT" in output

    def test_serve_rejects_unbindable_port(self, tmp_path, capsys):
        code = main(
            ["serve", "--host", "256.256.256.256", "--port", "1",
             "--store", str(tmp_path / "svc.db")]
        )
        assert code == 2
        assert "cannot bind" in capsys.readouterr().err
