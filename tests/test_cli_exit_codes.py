"""CLI exit-code contract: bad input is exit 2 with a one-line error.

The convention the CLI follows (and this sweep enforces):

* ``0`` — success;
* ``1`` — the tool ran but the result is a failure (failed validation
  seeds, lint errors, interpreter/simulator disagreement);
* ``2`` — the invocation itself is bad (missing file, unknown scheme,
  malformed grid spec, unreachable service) — reported as exactly one
  ``repro: error: ...`` line on stderr, never a traceback.
"""

from __future__ import annotations

import pytest

from repro import __version__
from repro.cli import main


def _stderr_error_line(capsys) -> str:
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if line]
    assert len(lines) == 1, f"expected one error line, got: {captured.err!r}"
    assert lines[0].startswith("repro: error: ")
    assert "Traceback" not in captured.err
    return lines[0]


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_package_dunder_version(self):
        assert __version__ and __version__[0].isdigit()


class TestBadInputSweep:
    def test_run_missing_file(self, capsys):
        assert main(["run", "/no/such/program.mc"]) == 2
        assert "cannot load" in _stderr_error_line(capsys)

    def test_run_unparsable_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.ir"
        bad.write_text("func this is not ( valid IR\n")
        assert main(["run", str(bad)]) == 2
        assert "cannot load" in _stderr_error_line(capsys)

    def test_run_bad_scheme_spec(self, tmp_path, capsys):
        source = tmp_path / "ok.mc"
        source.write_text("func main() { return 0; }\n")
        assert main(["run", str(source), "--scheme", "nonsense"]) == 2
        _stderr_error_line(capsys)

    def test_bench_bad_scheme_spec(self, capsys):
        assert main(["bench", "--benchmarks", "compress",
                     "--schemes", "treegion,bogus"]) == 2
        _stderr_error_line(capsys)

    def test_validate_bad_grid_axis(self, capsys):
        assert main(["validate", "--seeds", "1",
                     "--grid", "flavours=mint"]) == 2
        assert "axis" in _stderr_error_line(capsys)

    def test_validate_malformed_grid(self, capsys):
        assert main(["validate", "--seeds", "1", "--grid", "bogus"]) == 2
        _stderr_error_line(capsys)

    @pytest.mark.parametrize("grid, word", [
        ("machines=9Z", "machine"),
        ("heuristics=nope", "heuristic"),
        ("schemes=", "empty"),
    ])
    def test_validate_bad_grid_value(self, grid, word, capsys):
        assert main(["validate", "--seeds", "1", "--grid", grid]) == 2
        assert word in _stderr_error_line(capsys)

    def test_warm_bad_grid(self, tmp_path, capsys):
        assert main(["warm", "--cache-dir", str(tmp_path / "store"),
                     "--benchmarks", "compress",
                     "--grid", "machines"]) == 2
        _stderr_error_line(capsys)

    def test_warm_missing_file(self, tmp_path, capsys):
        assert main(["warm", "/no/such/program.mc",
                     "--cache-dir", str(tmp_path / "store")]) == 2
        assert "cannot load" in _stderr_error_line(capsys)

    def test_lint_needs_file_or_corpus(self, capsys):
        assert main(["lint"]) == 2
        assert "exactly one" in _stderr_error_line(capsys)

    def test_client_unreachable_endpoint(self, tmp_path, capsys):
        missing = f"unix://{tmp_path / 'nobody-home.sock'}"
        assert main(["client", "--endpoint", missing, "--ping"]) == 2
        assert "cannot reach service" in _stderr_error_line(capsys)

    def test_client_socket_flag_is_rejected(self, tmp_path, capsys):
        missing = str(tmp_path / "nobody-home.sock")
        with pytest.raises(SystemExit) as exit_info:
            main(["client", "--socket", missing, "--ping"])
        assert exit_info.value.code == 2
        assert "--socket" in capsys.readouterr().err

    def test_client_bare_path_endpoint_is_rejected(self, tmp_path,
                                                   capsys):
        missing = str(tmp_path / "nobody-home.sock")
        assert main(["client", "--endpoint", missing, "--ping"]) == 2
        assert "unix:///path" in _stderr_error_line(capsys)

    def test_client_needs_file_or_op(self, tmp_path, capsys):
        missing = f"unix://{tmp_path / 'nobody-home.sock'}"
        assert main(["client", "--endpoint", missing]) == 2
        assert "--ping" in _stderr_error_line(capsys)

    def test_client_bad_endpoint_scheme(self, capsys):
        assert main(["client", "--endpoint", "http://host:80",
                     "--ping"]) == 2
        _stderr_error_line(capsys)

    @pytest.mark.parametrize("flag, flag_name", [
        ("--clients=0", "--clients"),
        ("--clients=-3", "--clients"),
        ("--requests=0", "--requests"),
        ("--requests=-1", "--requests"),
        ("--ramp=-1", "--ramp"),
    ])
    def test_soak_rejects_degenerate_load(self, flag, flag_name, capsys):
        # Rejected before any endpoint is dialed: a soak that sends no
        # request, or silently clamps its load, must not exit 0.
        assert main(["soak", "--benchmarks", "compress", flag]) == 2
        assert flag_name in _stderr_error_line(capsys)
