"""End-to-end checks of the command line surface.

Commands are driven through main() with argv lists; stdout is parsed
back as JSON and validated against the schema files shipped with the
package.
"""

import dataclasses
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import minifunc
from minifunc.cli import (
    main,
    parse_phi,
    read_counts,
    schema_path,
)
from minifunc.errors import ConfigurationError, InputFormatError
from minifunc.estimators import Histogram, corrected_plugin_estimate, default_config
from minifunc.functionals import power_functional, shannon_functional
from minifunc.lowerbounds import canonical_two_point_pair, le_cam_bound
from minifunc.polyapprox import remez_best_approx


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(doc, command):
    schema = json.loads(schema_path(command).read_text())
    jsonschema.validate(doc, schema)


def strict_loads(text):
    """json.loads that rejects NaN, Infinity and -Infinity (not JSON, RFC 8259)."""
    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    return json.loads(text, parse_constant=reject)


INT64_MAX = 2**63 - 1


def reference_read(data, k_override):
    """read_counts' input format, one line at a time, as (kind, counts) or
    (error class, line): the grammar the vectorised reader must agree with.

    Leading blank space and blank space after the last row are skipped.
    The first row that is not plain digits is the error; after that, the
    first row with a value of 2**63 or more, a repeated symbol or a total
    past 2**63 - 1.
    """
    lines = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n").split(b"\n")
    while lines and not lines[-1].strip():
        lines.pop()
    start = next((i for i, line in enumerate(lines) if line.strip()), None)
    if start is None:
        return InputFormatError, 1
    lines[start] = lines[start].lstrip()
    lines[-1] = lines[-1].rstrip()
    histogram = lines[start].strip().replace(b" ", b"").lower() == b"symbol,count"
    rows = list(enumerate(lines, start=1))[start + histogram :]
    if not rows:
        return InputFormatError, len(data.splitlines())
    grammar = rb"\d+,\d+" if histogram else rb"\d+"
    for line, row in rows:
        if not re.fullmatch(grammar, row):
            return InputFormatError, line
    entries, total, top, top_line = {}, 0, -1, None
    for line, row in rows:
        values = [int(field.lstrip(b"0") or b"0") for field in row.split(b",")]
        if max(values) > INT64_MAX:
            return InputFormatError, line
        if histogram:
            total += values[1]
            if values[0] in entries or total > INT64_MAX:
                return InputFormatError, line
        if values[0] > top:
            top, top_line = values[0], line
        entries[values[0]] = entries.get(values[0], 0) + (values[-1] if histogram else 1)
    k = top + 1 if k_override is None else k_override
    if k <= top:
        return ConfigurationError, None
    try:
        counts = np.zeros(k, dtype=np.int64)
    except (ValueError, OverflowError, MemoryError):
        return (InputFormatError, top_line) if k_override is None else (ConfigurationError, None)
    counts[list(entries)] = list(entries.values())
    return "histogram" if histogram else "samples", counts.tolist()


def read_outcome(path, k):
    """read_counts(path, k) as (kind, counts) or (error class, line)."""
    try:
        counts, kind = read_counts(str(path), k)
    except (InputFormatError, ConfigurationError) as e:
        return type(e), getattr(e, "line", None)
    assert counts.dtype == np.int64
    return kind, counts.tolist()


@pytest.fixture
def point_mass_file(tmp_path):
    path = tmp_path / "point.csv"
    path.write_text("symbol,count\n0,50\n")
    return str(path)


@pytest.fixture
def uniform_file(tmp_path):
    path = tmp_path / "uniform.csv"
    lines = ["symbol,count"] + [f"{i},25" for i in range(4)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParsePhi:
    # the grammar message every other --phi text gets
    GRAMMAR = "phi must be 'shannon' or 'power:<alpha>', got "

    def test_shannon(self, capsys):
        phi = parse_phi("shannon")
        assert phi.kind == "shannon"
        assert phi.eval(0.5) == pytest.approx(0.5 * math.log(2.0))
        code, out, _ = run_cli(["check-speed", "--phi", "shannon", "--ell", "2"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["phi"] == {"kind": "shannon"}

    def test_power_shorthand(self, capsys):
        phi = parse_phi("power:0.5")
        assert (phi.kind, phi.alpha) == ("power", 0.5)
        assert phi.eval(0.25) == pytest.approx(0.5)
        code, out, _ = run_cli(["check-speed", "--phi", " power:0.5 "], capsys)
        assert code == 0
        assert json.loads(out)["config"]["phi"] == {"kind": "power", "alpha": 0.5}

    def test_bad_exponent(self, uniform_file, tmp_path, capsys, monkeypatch):
        # a non-finite exponent is rejected before any command does work
        def no_work(*args, **kwargs):
            raise AssertionError("a command ran with a rejected --phi")

        for name in ("cli.read_counts", "cli.remez_best_approx", "risklab.rate_sweep"):
            monkeypatch.setattr(f"minifunc.{name}", no_work)
        commands = [
            ["estimate", "--input", uniform_file],
            ["approx", "--L", "3"],
            ["risk-sweep", "--family", "uniform", "--n-grid", "30,60,120,300",
             "--reps", "100", "--out", str(tmp_path / "s.csv")],
        ]
        for text, message in [
            ("power:x", "bad power exponent in 'power:x'"),
            ("power:", "bad power exponent in 'power:'"),
            ("power:nan", "power exponent must be finite, got 'power:nan'"),
            ("power:inf", "power exponent must be finite, got 'power:inf'"),
            ("power:-inf", "power exponent must be finite, got 'power:-inf'"),
        ]:
            with pytest.raises(InputFormatError, match="exponent"):
                parse_phi(text)
            for argv in commands:
                code, out, err = run_cli([argv[0], "--phi", text, *argv[1:]], capsys)
                assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "s.csv").exists()

    def assert_rejected(self, text, capsys):
        with pytest.raises(InputFormatError, match="phi must be"):
            parse_phi(text)
        code, out, err = run_cli(["approx", "--phi", text, "--L", "3"], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {self.GRAMMAR}{text.strip()!r}\n"

    def test_json_forms(self, capsys):
        # the two functionals have one spelling each; JSON is not one of them
        for text in ['{"kind": "power", "alpha": 1.4}', ' {"kind": "shannon"} ']:
            self.assert_rejected(text, capsys)

    def test_bad_json(self, capsys):
        self.assert_rejected("{not json", capsys)

    def test_unknown_kind(self, capsys):
        self.assert_rejected('{"kind": "renyi"}', capsys)

    @pytest.mark.parametrize("text", [pytest.param('{"kind": "power"}', id="missing")])
    def test_json_alpha_not_a_number(self, text, capsys):
        # a power text without its exponent gets the grammar message too
        self.assert_rejected(text, capsys)

    def test_garbage(self):
        with pytest.raises(InputFormatError, match="phi must be"):
            parse_phi("entropy")


class TestReadCounts:
    def test_histogram_with_gaps(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,3\n3,7\n")
        counts, kind = read_counts(str(path))
        assert kind == "histogram"
        assert counts.tolist() == [3, 0, 0, 7]

    def test_k_override(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,3\n")
        counts, _ = read_counts(str(path), k_override=5)
        assert counts.tolist() == [3, 0, 0, 0, 0]

    def test_k_override_too_small(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,3\n4,1\n")
        with pytest.raises(ConfigurationError, match="smaller than"):
            read_counts(str(path), k_override=3)

    def test_duplicate_symbol_line_number(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,3\n1,2\n0,9\n")
        with pytest.raises(InputFormatError, match="line 4"):
            read_counts(str(path))

    def test_non_integer_field(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,3\n1,2.5\n")
        with pytest.raises(InputFormatError, match="line 3"):
            read_counts(str(path))

    def test_negative_count(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,-3\n")
        with pytest.raises(InputFormatError, match="non-negative"):
            read_counts(str(path))

    def test_samples_file(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0\n2\n2\n1\n2\n")
        counts, kind = read_counts(str(path))
        assert kind == "samples"
        assert counts.tolist() == [1, 1, 3]

    def test_samples_negative(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0\n-1\n")
        with pytest.raises(InputFormatError, match="line 2"):
            read_counts(str(path))

    def test_samples_garbage_line(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("0\n1\nboth\n")
        with pytest.raises(InputFormatError, match="line 3"):
            read_counts(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("")
        with pytest.raises(InputFormatError, match="empty"):
            read_counts(str(path))

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n")
        with pytest.raises(InputFormatError, match="no data rows"):
            read_counts(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="cannot read"):
            read_counts(str(tmp_path / "nope.csv"))

    @pytest.mark.parametrize(
        "text, k, expect",
        [
            ("symbol,count\r\n0,3\r\n2,5\r\n", None, ("histogram", [3, 0, 5])),
            ("2\r\n0\r\n2\r\n", None, ("samples", [1, 0, 2])),
            ("\n  \nsymbol,count\n\n0,3\n \t \n1,4\n\n", None, (InputFormatError, 4)),
            ("1\n\n \n1\n", None, (InputFormatError, 2)),
            ("symbol,count\n 0 , 3 \n1,\t4\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,+4\n+1,2\n", None, (InputFormatError, 2)),
            ("symbol,count\n5,1\n0,2\n3,3\n", None, ("histogram", [2, 0, 0, 3, 0, 1])),
            ("Symbol, Count\n0,1\n", None, ("histogram", [1])),
            ("symbol,count\n1,7", None, ("histogram", [0, 7])),
            ("4", None, ("samples", [0, 0, 0, 0, 1])),
            ("symbol,count\n0,3\n", 5, ("histogram", [3, 0, 0, 0, 0])),
            ("1\n1\n", 4, ("samples", [0, 2, 0, 0])),
            ("symbol,count\n0,1_000\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,3\n# note\n1,2\n", None, (InputFormatError, 3)),
            ("1\n5 6\n", None, (InputFormatError, 2)),
            ("1\n5,6\n", None, (InputFormatError, 2)),
            ("symbol,count\n1,2,3\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,1\n1,2\n0,3\n", None, (InputFormatError, 4)),
            ("symbol,count\n0,1\n1,1.0\n", None, (InputFormatError, 3)),
            ("1.0\n", None, (InputFormatError, 1)),
            ("symbol,count\n0,9223372036854775808\n", None, (InputFormatError, 2)),
            ("3\n9223372036854775808\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,-1\n", None, (InputFormatError, 2)),
            ("3\n-2\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,3\n1\x0c,4\n", None, (InputFormatError, 3)),
            ("symbol,count\n0\x1f,3\n", None, (InputFormatError, 2)),
            ("symbol,count\n0,①\n", None, (InputFormatError, 2)),
            ("symbol,count\n4,1\n", 3, (ConfigurationError, None)),
            ("symbol,count\n", None, (InputFormatError, 1)),
            (" \n", None, (InputFormatError, 1)),
            ("symbol,count\n0," + "0" * 4300 + "5\n1,2\n", None, ("histogram", [5, 2])),
            ("symbol,count\n0," + "0" * 4300 + "5\n \n1,2\n", None, (InputFormatError, 3)),
            ("symbol,count\n0,3\n2,5\n", None, ("histogram", [3, 0, 5])),
            ("0\n2\n2\n", None, ("samples", [1, 0, 2])),
            ("symbol,count\n0,3\n \n2,5\n", None, (InputFormatError, 3)),
            ("symbol,count\n0,3\n1,4 \n\n \t\n\n", None, ("histogram", [3, 4])),
            ("2\n0\n\n\n", None, ("samples", [1, 0, 1])),
            ("symbol,count\n \n\n", None, (InputFormatError, 3)),
            ("symbol,count\n0,1\n4611686018427387904,5\n1,1\n", None, (InputFormatError, 3)),
            ("symbol,count\n0,0009223372036854775807\n", None, ("histogram", [INT64_MAX])),
        ],
        ids=["crlf", "samples-crlf", "blank-lines", "samples-blank-lines", "spaces",
             "plus-sign", "unsorted", "header-case", "single-row", "single-sample",
             "k-override", "samples-k-override", "underscore", "comment", "samples-space",
             "samples-comma", "three-fields", "empty-field", "duplicate", "float",
             "samples-float", "count-2**63", "samples-2**63", "negative",
             "samples-negative", "form-feed", "unit-separator", "circled-digit", "k-too-small",
             "header-only", "blank-file", "zero-padded-4300", "zero-padded-4300-blank-line",
             "plain-histogram", "plain-samples", "blank-space-line", "trailing-blank-lines",
             "samples-trailing-blank-lines", "header-blank-lines", "symbol-too-large-mid-file",
             "zero-padded-2**63-1"],
    )
    def test_fast_path_agrees_with_line_parser(self, tmp_path, text, k, expect):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        assert read_outcome(path, k) == expect
        assert reference_read(text.encode("utf-8"), k) == expect

    def test_fast_path_never_disagrees_on_random_inputs(self, tmp_path):
        # read_counts answers as the line-by-line grammar does: the same
        # counts, or the same error class and line
        rng = random.Random(5)
        numbers = ["0", "1", "3", "17", "+4", "-2", "1_0", "2.0", "9223372036854775808",
                   "4611686018427387904"]
        others = [",", " ", "\t", "#", "\x0c", "\x1c", "\x1f", "①", "\u2028", "\xa0", "٣", "\r"]
        path = tmp_path / "in.txt"
        accepted = 0
        for _ in range(1000):
            histogram = rng.random() < 0.5
            lines = ["symbol,count"] if histogram else []
            for _ in range(rng.randint(0, 6)):
                line = ",".join(rng.choice(numbers[:4]) for _ in range(2 if histogram else 1))
                if rng.random() < 0.3:
                    at = rng.randint(0, len(line))
                    line = line[:at] + rng.choice(numbers + others) + line[at:]
                lines.append(line)
            text = "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"]) for line in lines)
            if any(10**6 <= int(m) < 2**62 for m in re.findall("[0-9]+", text)):
                continue  # an alphabet that large would really be allocated
            k = rng.choice([None, None, 4, 40])
            data = text.encode("utf-8")
            path.write_bytes(data)
            got = read_outcome(path, k)
            assert got == reference_read(data, k), repr(text)
            accepted += isinstance(got[0], str)
        assert accepted > 100

    @pytest.mark.parametrize(
        "data, line, needle",
        [
            (b"symbol,count\n0,4611686018427387904\n1,4611686018427387904\n", 3, "2**63"),
            (b"symbol,count\n4611686018427387904,5\n", 2, "k = 4611686018427387905"),
            (b"7\n9223372036854775807\n", 2, "k = 9223372036854775808"),
            (b"symbol,count\r\n0,3\r\n1,\xff\r\n", 3, "0xff"),
        ],
        ids=["total-overflow", "symbol-too-large", "sample-too-large", "non-utf8"],
    )
    def test_mended_faults_exit_2(self, tmp_path, capsys, data, line, needle):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        code, _, err = run_cli(["estimate", "--phi", "shannon", "--input", str(path)], capsys)
        assert code == 2
        assert f"line {line}:" in err
        assert needle in err

    def test_k_override_too_large_to_allocate(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("symbol,count\n0,3\n")
        with pytest.raises(ConfigurationError, match="too large to allocate"):
            read_counts(str(path), k_override=2**62)

    @pytest.mark.parametrize(
        "text, expect",
        [
            ("symbol,count\r\n0,3\r\n2,5\r\n", ("histogram", [3, 0, 5])),
            ("2\r\n0\r\n2\r\n", ("samples", [1, 0, 2])),
            ("\n \r\n\t\n\x0c\nsymbol,count\n0,3\n1,4\n", ("histogram", [3, 4])),
            ("\n\n2\n0\n", ("samples", [1, 0, 1])),
            ("symbol,count\r0,3\r1,4\r", ("histogram", [3, 4])),
            ("symbol,count\n0,3\r1,4\n", ("histogram", [3, 4])),
            ("\rsymbol,count\n0,3\n", ("histogram", [3])),
            ("2\r0\r\n2\n", ("samples", [1, 0, 2])),
        ],
        ids=["crlf", "samples-crlf", "blank-lines-before-header", "samples-blank-lines-first",
             "lone-cr", "lone-cr-in-body", "lone-cr-before-header", "samples-lone-cr"],
    )
    def test_path_reader_line_endings(self, tmp_path, text, expect):
        # CRLF and a lone CR both end a line
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        counts, kind = read_counts(str(path))
        assert (kind, counts.tolist()) == expect

    def test_numpy_fromstring_behaviour_the_reader_relies_on(self):
        # read_counts parses rows with this call: 2**63 parses exactly, a
        # value past uint64 saturates at 2**64 - 1 rather than raising, and
        # an empty field yields no value
        parse = lambda data: np.fromstring(data, dtype=np.uint64, sep=" ").tolist()
        assert parse(b"9223372036854775808 1\n") == [2**63, 1]
        assert parse(b"18446744073709551616 1000000000000000000000000000000\n") == [2**64 - 1] * 2
        assert parse(b"0 \n1 2\n") == [0, 1, 2]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compressed_suffix_read_as_plain_text(self, tmp_path, suffix):
        # nothing is decompressed: a suffix does not change how a file is read
        path = tmp_path / f"counts{suffix}"
        path.write_text("symbol,count\n0,3\n2,5\n")
        counts, kind = read_counts(str(path))
        assert (kind, counts.tolist()) == ("histogram", [3, 0, 5])

    def test_named_pipe_is_read_once(self, tmp_path):
        # reopening the drained FIFO would wait for a writer that is gone
        fifo = tmp_path / "counts.fifo"
        os.mkfifo(fifo)
        writer = subprocess.Popen(
            ["sh", "-c", 'printf "symbol,count\\n0,3\\n1,1\\n" > "$0"', str(fifo)]
        )
        env = dict(os.environ, PYTHONPATH=str(Path(minifunc.__file__).parents[1]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "minifunc.cli", "estimate", "--phi", "shannon",
                 "--input", str(fifo), "--estimator", "plugin"],
                capture_output=True, text=True, env=env, timeout=30,
            )
        finally:
            writer.kill()
            writer.wait(timeout=10)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert (doc["config"]["input_kind"], doc["config"]["k"]) == ("histogram", 2)


class TestEstimateCommand:
    def test_point_mass_plugin_is_zero(self, point_mass_file, capsys):
        # phi(1) + (k-1) phi(0) = 0 for entropy
        code, out, _ = run_cli(
            ["estimate", "--phi", "shannon", "--input", point_mass_file,
             "--estimator", "plugin", "--k", "4"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "estimate")
        assert doc["estimate"] == 0.0
        assert doc["branch_counts"] == {"plugin": 4, "poly": 0}
        for key in ("n_effective", "degree", "threshold", "poly_interval"):
            assert doc[key] is None
        assert doc["config"]["k"] == 4
        assert doc["config"]["n"] == 50
        assert doc["config"]["estimator"] == "plugin"

    def test_composite_fields_and_schema(self, uniform_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file, "--seed", "7"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "estimate")
        assert doc["config"]["estimator"] == "composite"
        assert doc["config"]["preset"] == "default"
        assert doc["config"]["seed"] == 7
        assert doc["config"]["correction_order"] == 2
        # the default constants give degree 0 at n_effective = 50: the plain
        # plugin answers
        assert any(w.startswith("degree floor(C1 ln n_effective) = 0 ") for w in doc["warnings"])
        assert not any("split in place" in w for w in doc["warnings"])
        assert doc["n_effective"] == 50.0
        assert doc["estimate"] == pytest.approx(math.log(4.0), rel=0.5)

    def test_determinism(self, uniform_file, capsys):
        argv = ["estimate", "--phi", "shannon", "--input", uniform_file, "--seed", "3"]
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_seed_does_not_move_the_estimate(self, tmp_path, capsys):
        # the composite draws nothing: --seed 0 and --seed 9 give the same
        # bytes but for the seed the config echoes
        path = tmp_path / "mixed.csv"
        path.write_text("symbol,count\n" + "".join(f"{i},{i % 30}\n" for i in range(200)))
        outs = []
        for seed in ("0", "9"):
            argv = ["estimate", "--phi", "shannon", "--input", str(path), "--preset", "tuned", "--seed", seed]
            code, out, _ = run_cli(argv, capsys)
            assert code == 0
            outs.append(out)
        assert min(json.loads(outs[0])["branch_counts"].values()) > 0
        assert outs[0].count('"seed": 0') == 1
        assert outs[1] == outs[0].replace('"seed": 0', '"seed": 9')

    def test_seed_only_from_the_flag(self, uniform_file, capsys, monkeypatch):
        # the environment is no second seed source: without --seed it is 0
        argv = ["estimate", "--phi", "shannon", "--input", uniform_file, "--preset", "tuned"]
        _, out_plain, _ = run_cli(argv, capsys)
        monkeypatch.setenv("MINIFUNC_SEED", "7")
        code, out_env, _ = run_cli(argv, capsys)
        assert code == 0
        assert json.loads(out_env)["config"]["seed"] == 0
        assert out_env == out_plain

    @pytest.mark.parametrize("estimator", ["composite", "plugin"])
    def test_negative_seed_rejected(self, uniform_file, capsys, estimator):
        code, out, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file,
             "--estimator", estimator, "--seed", "-1"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err == "error: --seed must be >= 0, got -1\n"

    def test_inadmissible_constants_rejected(self, uniform_file, capsys):
        code, _, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file,
             "--c1", "0.9", "--c2", "0.5"],
            capsys,
        )
        assert code == 3
        assert "admissibility" in err

    def test_allow_unvalidated_escape(self, uniform_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file,
             "--c1", "0.9", "--c2", "0.5", "--allow-unvalidated"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "estimate")
        assert doc["config"]["preset"] == "explicit"
        assert any("admissibility" in w for w in doc["warnings"])

    # explicit constants under --allow-unvalidated: test_allow_unvalidated_escape
    @pytest.mark.parametrize("preset, warned", [("tuned", True), ("default", False)])
    def test_preset_admissibility_warnings(self, uniform_file, capsys, preset, warned):
        code, out, _ = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file, "--preset", preset], capsys
        )
        assert code == 0
        warnings = [w for w in json.loads(out)["warnings"] if w.startswith("admissibility: ")]
        assert bool(warnings) == warned

    @pytest.mark.parametrize("c1, c2", [("inf", "0.5"), ("0.9", "inf")])
    def test_infinite_constants_exit_3(self, uniform_file, capsys, c1, c2):
        code, out, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file, "--c1", c1, "--c2", c2,
             "--allow-unvalidated", "--estimator", "composite"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert "must be positive and finite, got inf" in err

    def test_half_explicit_constants(self, uniform_file, capsys):
        code, _, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file, "--c1", "0.9"],
            capsys,
        )
        assert code == 3
        assert "together" in err

    def test_samples_match_histogram(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        hist.write_text("symbol,count\n0,2\n1,1\n2,3\n")
        samp = tmp_path / "s.txt"
        samp.write_text("0\n0\n1\n2\n2\n2\n")
        argv = ["estimate", "--phi", "power:1.9", "--input", None, "--estimator", "plugin"]
        argv[4] = str(hist)
        _, out_h, _ = run_cli(argv, capsys)
        argv[4] = str(samp)
        _, out_s, _ = run_cli(argv, capsys)
        doc_h, doc_s = json.loads(out_h), json.loads(out_s)
        assert doc_h["estimate"] == doc_s["estimate"]
        assert doc_h["config"]["input_kind"] == "histogram"
        assert doc_s["config"]["input_kind"] == "samples"

    @pytest.mark.parametrize("phi", ["power:0.5", "shannon"])
    def test_huge_total_gives_a_finite_composite(self, phi, tmp_path, capsys):
        # n_effective = 1e16 puts the degree at 33; the counts of symbol 0
        # are far past any count the poly branch's recurrence could carry
        path = tmp_path / "huge.csv"
        path.write_text("symbol,count\n0,20000000000000000\n1,60\n2,62\n3,58\n")
        code, out, err = run_cli(["estimate", "--phi", phi, "--input", str(path), "--preset", "tuned"], capsys)
        assert code == 0, err
        doc = strict_loads(out)
        check_schema(doc, "estimate")
        assert doc["degree"] == 33 and doc["branch_counts"]["poly"] > 0
        assert math.isfinite(doc["estimate"])

    def test_nonfinite_composite_exit_4(self, uniform_file, capsys, monkeypatch):
        # every symbol of uniform_file takes the plugin branch
        monkeypatch.setattr("minifunc.estimators._CompositeRule.plugin_values",
                            lambda self, counts: np.full(counts.size, math.nan))
        code, out, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file, "--preset", "tuned",
             "--estimator", "composite"], capsys,
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: composite estimate is not finite (nan)")
        assert err.count("\n") == 1

    def test_infinite_estimate_prints_null(self, tmp_path, capsys):
        # p^-0.5 is infinite at the unseen symbol 1, so the plugin sum is too
        path = tmp_path / "gap.csv"
        path.write_text("symbol,count\n0,5\n2,5\n")
        code, out, _ = run_cli(
            ["estimate", "--phi", "power:-0.5", "--input", str(path), "--estimator", "plugin",
             "--c1", "0.9", "--c2", "0.5", "--allow-unvalidated"],
            capsys,
        )
        assert code == 0
        doc = strict_loads(out)
        check_schema(doc, "estimate")
        assert doc["estimate"] is None

    def test_recommended_estimator_used(self, uniform_file, capsys):
        # far-superlinear exponents default to the plugin
        code, out, _ = run_cli(
            ["estimate", "--phi", "power:1.9", "--input", uniform_file], capsys
        )
        assert code == 0
        assert json.loads(out)["config"]["estimator"] == "plugin"

    def test_corrected_matches_library(self, uniform_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file,
             "--estimator", "corrected"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        h = Histogram(counts=np.array([25, 25, 25, 25]), n_nominal=100)
        cfg = default_config(1.0, rng_seed=0)
        assert doc["estimate"] == corrected_plugin_estimate(h, shannon_functional(), cfg)

    @pytest.mark.parametrize("estimator", ["plugin", "corrected", "composite"])
    def test_empty_sample_one_error_line(self, tmp_path, estimator):
        # a child process, so that a numpy warning would reach its stderr
        path = tmp_path / "zeros.csv"
        path.write_text("symbol,count\n0,0\n1,0\n")
        proc = _run_module("estimate", "--phi", "shannon", "--input", str(path),
                           "--estimator", estimator)
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: sample size n must be positive, got 0"]

    def test_closed_stdout_exits_3_without_a_traceback(self, uniform_file):
        # the read end of the child's stdout pipe is closed before it writes
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_module("estimate", "--phi", "shannon", "--input", uniform_file,
                               stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: standard output was closed before the result was written"
        ]

    def test_stdout_closed_at_start_exits_3_without_a_traceback(self):
        # the child starts with descriptor 1 closed, so sys.stdout is None
        proc = subprocess.run(
            ["sh", "-c", 'exec "$0" -m minifunc.cli approx --phi shannon --L 8 >&-',
             sys.executable],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "error: standard output was closed before the result was written"
        ]

    def test_shared_closed_pipe_exits_3_without_a_traceback(self):
        # stdout and stderr share one pipe whose read end is closed, so the
        # error line cannot be written either; a traceback would exit 1
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_module("approx", "--phi", "shannon", "--L", "8",
                               stdout=write_end, stderr=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 3

    def test_malformed_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("symbol,count\n0,3\n1;4\n")
        code, _, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", str(path)], capsys
        )
        assert code == 2
        assert "line 3" in err

    def test_long_bad_row_quoted_in_part(self, tmp_path, capsys):
        # 1e5 samples written on one line: the message keeps the line and a
        # prefix of the row, not its 589 KB
        path = tmp_path / "oneline.txt"
        path.write_text(" ".join(map(str, range(100_000))) + "\n")
        code, out, err = run_cli(["estimate", "--phi", "shannon", "--input", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: line 1: expected one symbol of digits only, got '0 1 2 3 ")
        assert err.endswith("…'\n") and len(err.encode()) < 1024

    @pytest.mark.parametrize("family", ["uniform", "zipf1.5"])
    def test_default_preset_at_degree_0_is_the_plugin(self, family, tmp_path, capsys):
        # the admissible constants give degree floor(C1 ln 5e4) = 0, where a
        # "polynomial" ignores the counts; the plain plugin answers instead
        k, n = 1000, 100_000
        p = np.full(k, 1.0 / k) if family == "uniform" else np.arange(1.0, k + 1.0) ** -1.5
        p /= p.sum()
        counts = np.random.default_rng(1).multinomial(n, p)
        path = tmp_path / "counts.csv"
        path.write_text("symbol,count\n" + "".join(f"{i},{c}\n" for i, c in enumerate(counts)))
        code, out, _ = run_cli(["estimate", "--phi", "shannon", "--input", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "estimate")
        assert abs(doc["estimate"] - float(-(p * np.log(p)).sum())) <= 0.02
        assert doc["degree"] == 0 and doc["branch_counts"] == {"plugin": k, "poly": 0}
        assert any(
            w.startswith("degree floor(C1 ln n_effective) = 0 ") and "plain plugin" in w
            for w in doc["warnings"]
        )

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", str(tmp_path / "no.csv")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            (template.format(big), line)
            for big in (2**63, 2**64 - 1, 2**64, 10**30)
            for template, line in [
                ("symbol,count\n0,5\n1,{}\n", 3),
                ("symbol,count\n{},5\n", 2),
                ("3\n{}\n", 2),
            ]
        ],
        ids=[
            f"{where}{suffix}"
            for suffix in ("", "-2**64-1", "-2**64", "-10**30")
            for where in ("histogram-count", "histogram-symbol", "sample-symbol")
        ],
    )
    def test_int64_overflow_exit_2(self, tmp_path, capsys, text, line):
        # numpy reads every field of 2**64 or more as 2**64 - 1
        path = tmp_path / "big.csv"
        path.write_text(text)
        code, _, err = run_cli(
            ["estimate", "--phi", "shannon", "--input", str(path)], capsys
        )
        assert code == 2
        assert f"line {line}" in err
        assert "2**63" in err


class TestApproxCommand:
    def test_sup_error_bit_for_bit(self, capsys):
        code, out, _ = run_cli(
            ["approx", "--phi", "power:0.5", "--L", "8", "--interval", "0,0.1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "approx")
        ref = remez_best_approx(power_functional(0.5).eval, 8, (0.0, 0.1))
        assert doc["sup_error"] == ref.sup_error
        assert doc["coefficients"] == [float(c) for c in ref.poly.coeffs]
        assert len(doc["alternation_points"]) == 10
        assert doc["converged"] is True

    def test_bad_interval_exit_2(self, capsys):
        for interval in ("0;1", "0,x"):
            code, _, err = run_cli(
                ["approx", "--phi", "shannon", "--L", "4", "--interval", interval], capsys
            )
            assert code == 2
            assert "interval" in err

    def test_numerical_failure_exit_4(self, capsys):
        # x^{-1/2} blows up at the left endpoint
        code, _, err = run_cli(
            ["approx", "--phi", "power:-0.5", "--L", "4", "--interval", "0,1"], capsys
        )
        assert code == 4

    def test_unconverged_exit_4(self, capsys, monkeypatch):
        def solve(f, L, interval):
            return dataclasses.replace(remez_best_approx(f, L, interval), converged=False)

        monkeypatch.setattr("minifunc.cli.remez_best_approx", solve)
        code, out, err = run_cli(
            ["approx", "--phi", "shannon", "--L", "6", "--interval", "0,1"], capsys
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: best-approximation search did not converge at degree 6")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("L, floor", [("8", False), ("32", True), ("40", True)])
    def test_reports_roundoff_floor_stop(self, capsys, L, floor):
        code, out, _ = run_cli(
            ["approx", "--phi", "power:1.5", "--L", L, "--interval", "0,1"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "approx")
        assert doc["converged"] is True
        assert doc["at_roundoff_floor"] is floor

    def test_overflowing_coefficients_exit_4(self, capsys):
        # the monomial coefficients grow like (2 / 1e-13)**m, past the float
        # range from degree 15; the schema allows no null coefficient
        code, out, err = run_cli(
            ["approx", "--phi", "shannon", "--L", "30", "--interval", "0,1e-13"], capsys
        )
        assert (code, out) == (4, "")
        assert err == ("error: monomial coefficients of the degree-30 approximation on "
                       "[0.0, 1e-13] overflow the float range\n")

    @pytest.mark.parametrize("L", [str(2**63), str(10**400)])
    def test_degree_too_large_exit_3(self, capsys, L):
        code, out, err = run_cli(["approx", "--phi", "shannon", "--L", L], capsys)
        assert (code, out) == (3, "")
        assert err == f"error: degree {L} is too large to allocate\n"

    def test_huge_degree_exit_3_before_allocating(self):
        # under a 2 GiB address-space limit, so building the 8(L+2)-point scan
        # before the levelled system fails with numpy's own MemoryError instead
        child = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from minifunc.cli import main
sys.exit(main(["approx", "--phi", "shannon", "--L", "100000000"]))
"""
        proc = _run_child(child)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: degree 100000000 is too large to allocate\n"

    @pytest.mark.parametrize("interval", ["nan,1", "0,inf", "0.5,0.5"])
    def test_nonfinite_or_empty_interval_exit_3(self, interval, capsys):
        code, out, err = run_cli(
            ["approx", "--phi", "shannon", "--L", "4", "--interval", interval], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: bad interval ")


class TestCheckSpeedCommand:
    def test_shannon_second_order(self, capsys):
        code, out, _ = run_cli(["check-speed", "--phi", "shannon", "--ell", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "check-speed")
        assert doc["holds"] is True
        assert doc["W"] == 1.0
        assert doc["config"]["alpha"] == 1.0

    def test_power_first_order(self, capsys):
        code, out, _ = run_cli(["check-speed", "--phi", "power:0.5", "--ell", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "check-speed")
        assert doc["holds"] is True
        assert doc["W"] == pytest.approx(0.5, rel=1e-9)

    def test_failed_fit_prints_null_not_infinity(self, capsys):
        # |phi'| = ln(1/p) - 1 is no multiple of p^0: over p <= 1e-4 it
        # halves, and the failed fit leaves c and c' infinite, which JSON
        # cannot carry
        code, out, _ = run_cli(["check-speed", "--phi", "shannon", "--ell", "1"], capsys)
        assert code == 0
        doc = strict_loads(out)
        check_schema(doc, "check-speed")
        assert doc["holds"] is False
        assert (doc["c"], doc["c_prime"]) == (None, None)
        assert doc["W"] > 0 and doc["spread"] == pytest.approx(0.529, abs=1e-3)


class TestLowerBoundCommand:
    def test_le_cam_matches_library(self, capsys):
        code, out, _ = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "100", "--n", "1000"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "lower-bound")
        pair = canonical_two_point_pair(shannon_functional(), 100, 1000)
        ref = le_cam_bound(pair.P, pair.Q, shannon_functional(), 1000)
        assert doc["bound_value"] == ref
        assert doc["bound_value"] == 0.0007312808458165241
        assert set(doc["terms"]) == {"theta_gap", "kl", "kl_bound"}

    def test_hellinger_construction(self, capsys):
        code, out, _ = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "100", "--n", "1000",
             "--construction", "hellinger"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "lower-bound")
        assert doc["bound_value"] > 0.0
        assert "hellinger_sq" in doc["terms"]

    def test_composite_terms_identity(self, capsys):
        code, out, _ = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "10000", "--n", "10000",
             "--construction", "composite", "--gap", "7e-5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "lower-bound")
        assert doc["condition"] == 2
        assert doc["bound_value"] == pytest.approx(
            doc["terms"]["main"] - doc["terms"]["total_correction"], rel=1e-12
        )
        assert doc["config"]["lam"] == pytest.approx(
            0.05 * 10000 * math.log(10000) / 10000, rel=1e-12
        )
        assert doc["config"]["degree"] == 19

    def test_composite_needs_gap(self, capsys):
        code, _, err = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "10000", "--n", "10000",
             "--construction", "composite"],
            capsys,
        )
        assert code == 3
        assert "--gap" in err

    @pytest.mark.parametrize(
        "k, n, extra",
        [("100", "0", []), ("-4", "1000", []), ("0", "1000", ["--lam", "0.01"]),
         ("1", "1000", ["--gap", "1e-12"])],
        ids=["n-zero", "k-negative", "k-zero-explicit-lam", "k-one"],
    )
    def test_composite_rejects_bad_k_n(self, capsys, k, n, extra):
        # the default lam and degree take log(n) and sqrt(k); the bound divides by k
        # and, like the two-point pairs, needs a second symbol
        code, out, err = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", k, "--n", n,
             "--construction", "composite", "--gap", "1e-6", *extra],
            capsys,
        )
        assert (code, out) == (3, "")
        assert "k >= 2 and n >= 1" in err

    @pytest.mark.parametrize("lam", [[], ["--lam", "0.1"]], ids=["condition-1", "condition-2"])
    def test_composite_degree_too_large_exit_3(self, capsys, lam):
        # condition 2 needs gamma = lam / (2 L^2 k), which underflows to 0 here
        code, out, err = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "100", "--n", "1000",
             "--construction", "composite", "--gap", "1e-30", "--degree", str(10**400), *lam],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.count("\n") == 1
        assert ("too large to allocate" if not lam else "degenerate interval") in err

    @pytest.mark.parametrize(
        "lam, gap", [("0.05", "1e-30"), ("0.5", "7e-5")], ids=["condition-1", "condition-2"]
    )
    def test_composite_unconverged_exit_4(self, capsys, monkeypatch, lam, gap):
        # a bound certified from an unconverged E_L would certify nothing;
        # unpatched, these arguments certify condition 1 and condition 2
        def solve(f, L, interval):
            return dataclasses.replace(remez_best_approx(f, L, interval), converged=False)

        monkeypatch.setattr("minifunc.lowerbounds.remez_best_approx", solve)
        code, out, err = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "10000", "--n", "10000",
             "--construction", "composite", "--lam", lam, "--gap", gap],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err.startswith("error: best-approximation search did not converge at degree 19 ")
        assert err.count("\n") == 1

    def test_composite_tv_term_overflow_exit_3(self, capsys):
        # k (2e n lam / (L k))^L = 2 * 3.9e9^56 at the default degree 56
        code, out, err = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", "2", "--n", str(10**12),
             "--construction", "composite", "--gap", "1e-30", "--lam", "0.08"],
            capsys,
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: tv_term ") and "overflows a float" in err
        assert err.count("\n") == 1


class TestPriorsCommand:
    def test_moment_pair_csv(self, tmp_path, capsys):
        out_path = str(tmp_path / "pair.csv")
        code, out, _ = run_cli(
            ["priors", "--phi", "shannon", "--L", "6", "--interval", "0,0.5",
             "--out", out_path],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "priors")
        lines = open(out_path).read().splitlines()
        assert lines[0] == "x,w0,w1"
        assert len(lines) == doc["support_size"] + 1
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        x, w0, w1 = rows[:, 0], rows[:, 1], rows[:, 2]
        phi = shannon_functional()
        gap_from_csv = abs(
            math.fsum(w0 * phi.eval(x)) - math.fsum(w1 * phi.eval(x))
        )
        assert gap_from_csv == pytest.approx(doc["gap"], rel=1e-9)
        assert doc["gap"] > 0.0
        assert doc["support_size"] == 6 + 2
        with pytest.raises(SystemExit) as exc:
            main(["priors", "--phi", "shannon", "--L", "6", "--interval", "0,0.5",
                  "--grid-size", "600", "--out", out_path])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_nonfinite_phi_exit_4(self, tmp_path, capsys):
        # the same failure, and exit code, as approx on the same phi
        code, out, err = run_cli(
            ["priors", "--phi", "power:-0.5", "--L", "4", "--interval", "0,1",
             "--out", str(tmp_path / "pair.csv")],
            capsys,
        )
        assert (code, out) == (4, "")
        assert err == "error: f is not finite on the approximation interval\n"
        assert not (tmp_path / "pair.csv").exists()

    def test_infinite_interval_one_error_line(self, tmp_path):
        # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
        proc = _run_child(
            "import sys; from minifunc.cli import main; sys.exit(main(sys.argv[1:]))",
            "priors", "--phi", "shannon", "--L", "3", "--interval", "0,inf",
            "--out", str(tmp_path / "pair.csv"),
        )
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == "error: bad interval (0.0, inf)\n"

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "pair.csv")
        code, out, err = run_cli(
            ["priors", "--phi", "shannon", "--L", "6", "--out", out_path], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1

    def test_tilted_pair(self, tmp_path, capsys):
        out_path = str(tmp_path / "tilted.csv")
        code, out, _ = run_cli(
            ["priors", "--phi", "power:0.5", "--L", "6", "--gamma", "0.01",
             "--out", out_path],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "priors")
        assert doc["config"]["interval"] is None
        assert doc["config"]["gamma"] == 0.01
        # the L+2 reference points plus the atom at zero
        assert doc["support_size"] == 6 + 3


class TestUnconvergedRemezWarns:
    @pytest.fixture(autouse=True)
    def unconverged(self, monkeypatch):
        # every best-approximation solve returns its result marked unconverged
        def solve(f, L, interval):
            return dataclasses.replace(remez_best_approx(f, L, interval), converged=False)

        monkeypatch.setattr("minifunc.estimators.remez_best_approx", solve)
        monkeypatch.setattr("minifunc.lowerbounds.remez_best_approx", solve)
        monkeypatch.setattr("minifunc.estimators._PLAN_CACHE", {})

    def test_estimate(self, uniform_file, capsys):
        code, out, _ = run_cli(
            ["estimate", "--phi", "shannon", "--input", uniform_file,
             "--estimator", "composite", "--preset", "tuned"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "estimate")
        assert doc["degree"] == 3
        assert "best-approximation search did not converge at degree 3; using last iterate" in (
            doc["warnings"]
        )

    def test_priors(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["priors", "--phi", "shannon", "--L", "6", "--interval", "0,0.5",
             "--out", str(tmp_path / "pair.csv")],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "priors")
        assert doc["warnings"] == ["best-approximation reference did not converge at degree 6"]


class TestRiskSweepCommand:
    def _argv(self, out_path, seed="3", jobs="1"):
        return [
            "risk-sweep", "--family", "uniform", "--phi", "shannon",
            "--n-grid", "30,60,120,300", "--k-rule", "fixed:10",
            "--reps", "100", "--estimators", "plugin",
            "--out", out_path, "--seed", seed, "--jobs", jobs,
        ]

    def test_csv_and_summary(self, tmp_path, capsys):
        out_path = str(tmp_path / "sweep.csv")
        code, out, _ = run_cli(self._argv(out_path), capsys)
        assert code == 0
        doc = json.loads(out)
        check_schema(doc, "risk-sweep")
        lines = open(out_path).read().splitlines()
        assert lines[0] == "family,k,n,estimator,bias,var,mse,se,theory_rate"
        assert len(lines) == 5
        assert "plugin" in doc["slopes"]
        assert doc["config"]["n_grid"] == [30, 60, 120, 300]

    def test_byte_identical_across_runs_and_jobs(self, tmp_path, capsys):
        p1, p2, p3 = (str(tmp_path / f"s{i}.csv") for i in range(3))
        _, out1, _ = run_cli(self._argv(p1), capsys)
        _, out2, _ = run_cli(self._argv(p2), capsys)
        _, out3, _ = run_cli(self._argv(p3, jobs="3"), capsys)
        b1, b2, b3 = (open(p, "rb").read() for p in (p1, p2, p3))
        assert b1 == b2
        assert b1 == b3
        assert json.loads(out1)["slopes"] == json.loads(out2)["slopes"]
        assert json.loads(out1)["slopes"] == json.loads(out3)["slopes"]

    # sha256 of the CSV of the uniform k = n shannon sweep below (n 1e3 to
    # 1e4, plugin and composite, 100 reps, seed 7), taken at PINNED_NUMPY
    # once the composite averaged its fair-coin split out.  Any
    # change to the rep loop that moves one byte of it fails here.  numpy's
    # Generator streams may change between versions (NEP 19), so another
    # numpy fails on the version first; test_draws_are_the_alias_coin_formula
    # and the run_estimator loops in test_risklab.py check the draws under
    # any numpy.
    PINNED_SWEEP_SHA256 = "21112a4f4283c1af3fcc929cd8029ba3f58844e2599fb93c1b3457d097205416"
    PINNED_NUMPY = "2.4.6"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pinned_sweep_bytes(self, tmp_path, capsys, jobs):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            ["risk-sweep", "--family", "uniform", "--phi", "shannon", "--k-rule", "n",
             "--n-grid", "1000,2000,5000,10000", "--estimators", "plugin,composite",
             "--reps", "100", "--jobs", jobs, "--out", str(out_path), "--seed", "7"],
            capsys,
        )
        assert np.__version__ == self.PINNED_NUMPY, (
            f"digest taken at numpy {self.PINNED_NUMPY}, running {np.__version__}; "
            "re-pin it from the parent commit's sweep at this numpy"
        )
        assert code == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == self.PINNED_SWEEP_SHA256

    def test_unwritable_out_exit_3(self, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        monkeypatch.setattr("minifunc.risklab.rate_sweep", no_sweep)
        for out_path in (str(tmp_path / "missing" / "sweep.csv"), str(tmp_path)):
            code, out, err = run_cli(self._argv(out_path), capsys)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: cannot write {out_path}: ")
            assert err.count("\n") == 1

    def test_failed_sweep_keeps_existing_out(self, tmp_path, capsys):
        out_path = tmp_path / "sweep.csv"
        out_path.write_text("an earlier sweep\n")
        argv = self._argv(str(out_path))
        argv[argv.index("--phi") + 1] = "power:2.5"
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (3, "")
        assert "alpha" in err
        assert out_path.read_text() == "an earlier sweep\n"

    def test_nonfinite_family_param_exit_3(self, tmp_path, capsys):
        for family in ("zipf", "dirichlet"):
            code, out, err = run_cli(
                ["risk-sweep", "--family", family, "--param", "inf", "--phi", "shannon",
                 "--n-grid", "10,20,50,100", "--reps", "100",
                 "--out", str(tmp_path / "x.csv")],
                capsys,
            )
            assert (code, out) == (3, "")
            assert err == f"error: {family} parameter must be positive and finite, got inf\n"
        assert not (tmp_path / "x.csv").exists()

    def test_zipf_past_the_float_range_keeps_stderr_empty(self, tmp_path):
        # 6**400 overflows a double: those symbols have mass 0, silently
        proc = _run_module(
            "risk-sweep", "--family", "zipf", "--param", "400", "--phi", "shannon",
            "--n-grid", "10,20,50,100", "--reps", "100", "--out", str(tmp_path / "z.csv"),
        )
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_flat_mse_slope_is_null(self, tmp_path, capsys):
        # a point mass: the plugin is exact, its MSE is 0 and log MSE has no slope
        code, out, _ = run_cli(
            ["risk-sweep", "--family", "two_spike", "--param", "1", "--phi", "shannon",
             "--n-grid", "10,20,50,100", "--reps", "100", "--out", str(tmp_path / "ts.csv")],
            capsys,
        )
        assert code == 0
        doc = strict_loads(out)
        check_schema(doc, "risk-sweep")
        assert doc["slopes"]["plugin"] is None
        assert isinstance(doc["slopes"]["composite"], float)

    def test_short_grid_exit_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["risk-sweep", "--family", "uniform", "--phi", "shannon",
             "--n-grid", "30,60", "--reps", "100",
             "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert code == 3

    @pytest.mark.parametrize(
        "flag, value",
        [("--estimators", "composite,composite"), ("--n-grid", "10,10,10,100")],
        ids=["estimators", "n-grid"],
    )
    def test_repeated_entries_exit_3(self, tmp_path, capsys, flag, value):
        argv = ["risk-sweep", "--family", "uniform", "--phi", "shannon",
                "--n-grid", "30,60,120,300", "--reps", "100",
                "--out", str(tmp_path / "s.csv")]
        code, out, err = run_cli(argv + [flag, value], capsys)
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "distinct" in lines[0]
        assert not (tmp_path / "s.csv").exists()

    def test_garbage_grid_exit_2(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["risk-sweep", "--family", "uniform", "--phi", "shannon",
             "--n-grid", "a,b,c,d", "--reps", "100",
             "--out", str(tmp_path / "s.csv")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("alpha", ["2.5", "-1"])
    def test_bad_alpha_fails_fast_and_quietly(self, tmp_path, alpha):
        # a fresh interpreter, so numpy's RuntimeWarnings would reach stderr
        proc = _run_child(
            "import sys; from minifunc.cli import main; sys.exit(main(sys.argv[1:]))",
            "risk-sweep", "--family", "uniform", "--phi", f"power:{alpha}",
            "--n-grid", "30,60,120,300", "--reps", "100",
            "--out", str(tmp_path / "s.csv"),
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert not (tmp_path / "s.csv").exists()

    def test_alpha_flag_removed(self, tmp_path, capsys):
        # --phi power:A names a power functional; --alpha is no longer a synonym
        with pytest.raises(SystemExit) as exc:
            main([
                "risk-sweep", "--family", "uniform", "--phi", "shannon",
                "--alpha", "1.0", "--n-grid", "30,60,120,300",
                "--out", str(tmp_path / "s.csv"),
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha" in capsys.readouterr().err

    def test_model_flag_removed(self, tmp_path, capsys):
        # every sweep draws multinomial samples
        with pytest.raises(SystemExit) as exc:
            main(self._argv(str(tmp_path / "s.csv")) + ["--model", "poissonized"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --model" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--input", "counts.csv", "--order", "4"],
        ["estimate", "--input", "counts.csv", "--model", "poissonized"],
        ["estimate", "--input", "counts.csv", "--n", "100"],
        ["check-speed", "--alpha", "0.5"],
        ["lower-bound", "--k", "100", "--n", "1000", "--p", "0.4"],
        ["lower-bound", "--k", "100", "--n", "1000", "--c", "2"],
        ["priors", "--L", "6", "--gamma", "0.01", "--out", "pair.csv", "--eta", "0.1"],
    ],
    ids=["estimate-order", "estimate-model", "estimate-n", "check-speed-alpha", "lower-bound-p", "lower-bound-c", "priors-eta"],
)
def test_removed_option_exit_2(argv, tmp_path, capsys, monkeypatch):
    # phi decides alpha, the correction order and the pairs, and the input
    # decides n and the model, so none of these options exists, and none is
    # read as an abbreviation (--p of --phi, --c of --construction)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--phi", "shannon"] + argv[1:])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


class TestOutOfMemory:
    def test_memory_error_exit_3(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("no room")

        monkeypatch.setattr("minifunc.cli.remez_best_approx", exhausted)
        code, out, err = run_cli(["approx", "--phi", "shannon", "--L", "3"], capsys)
        assert (code, out, err) == (3, "", "error: out of memory: no room\n")

    def test_alphabet_beyond_address_space_exit_3(self, capsys):
        # 8e18 bytes per vector: beyond any user address space (2**57 bytes with
        # 5-level paging), so the allocation fails without touching memory
        code, out, err = run_cli(
            ["lower-bound", "--phi", "shannon", "--k", str(10**18), "--n", "1000"], capsys
        )
        assert (code, out) == (3, "")
        assert err.startswith("error: out of memory: ")
        assert err.count("\n") == 1


# Run in a fresh interpreter so that modules pytest or other tests loaded do
# not count; prints the exit code, the minifunc modules loaded and whether
# numpy was after a bare `import minifunc`, the minifunc modules loaded at
# the end, every scipy module loaded and whether numpy.ma (14-23 ms of
# import, pulled in by np.unique or np.median) was.
_FOOTPRINT_CHILD = """
import contextlib, io, json, sys
def minifunc_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "minifunc")
import minifunc
bare = {"minifunc": minifunc_modules(), "numpy": "numpy" in sys.modules}
from minifunc.cli import main
argv = json.loads(sys.argv[1])
code = 0
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"code": code, "import": bare, "minifunc": minifunc_modules(), "scipy": scipy,
                  "numpy.ma": "numpy.ma" in sys.modules}))
"""

# the minifunc modules that importing the CLI loads, and the further ones
# that a command imports when it runs
_CLI_MODULES = ["minifunc", "minifunc.cli", "minifunc.errors", "minifunc.estimators",
                "minifunc.functionals", "minifunc.polyapprox"]
_COMMAND_MODULES = {"lower-bound": ["minifunc.lowerbounds"], "priors": ["minifunc.lowerbounds"],
                    "risk-sweep": ["minifunc.risklab"]}


def _child_env():
    src = str(Path(minifunc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def _run_child(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=_child_env(), timeout=120
    )


def _run_module(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """minifunc.cli run as a module in a child interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "minifunc.cli", *argv],
        stdout=stdout, stderr=stderr, text=True, env=_child_env(), timeout=120,
    )


class TestImportFootprint:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["approx", "--phi", "shannon", "--L", "8", "--interval", "0,0.1"],
            ["check-speed", "--phi", "shannon", "--ell", "2"],
            ["priors", "--phi", "shannon", "--L", "6", "--interval", "0,0.5",
             "--out", "{tmp}/pair.csv"],
            ["lower-bound", "--phi", "shannon", "--k", "100", "--n", "1000"],
            ["lower-bound", "--phi", "power:0.5", "--k", "1000", "--n", "1000",
             "--construction", "composite", "--gap", "1e-6"],
            ["estimate", "--phi", "shannon", "--input", "{tmp}/uniform.csv",
             "--preset", "default"],
            ["estimate", "--phi", "shannon", "--input", "{tmp}/uniform.csv",
             "--preset", "tuned"],
            ["risk-sweep", "--family", "uniform", "--phi", "shannon",
             "--n-grid", "30,60,120,300", "--k-rule", "fixed:10", "--reps", "100",
             "--estimators", "plugin,composite", "--out", "{tmp}/sweep.csv"],
        ],
        ids=["import", "approx", "check-speed", "priors", "lower-bound-le-cam",
             "lower-bound-composite", "estimate-default", "estimate-tuned",
             "risk-sweep"],
    )
    def test_no_scipy_loaded(self, tmp_path, argv):
        (tmp_path / "uniform.csv").write_text(
            "symbol,count\n" + "".join(f"{i},25\n" for i in range(4))
        )
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        proc = _run_child(_FOOTPRINT_CHILD, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["code"] == 0
        # a bare import loads no numpy; each command loads only its own modules
        assert result["import"] == {"minifunc": ["minifunc", "minifunc.errors"], "numpy": False}
        command = argv[0] if argv else None
        assert result["minifunc"] == sorted(_CLI_MODULES + _COMMAND_MODULES.get(command, []))
        assert result["scipy"] == []
        assert result["numpy.ma"] is False

    def test_estimate_loads_no_compression_modules(self, tmp_path):
        # the input is parsed from the bytes read; nothing reopens it by suffix
        path = tmp_path / "uniform.csv"
        path.write_text("symbol,count\n" + "".join(f"{i},25\n" for i in range(4)))
        # site-packages hooks may load some of them at interpreter start
        child = """
import contextlib, io, sys
started = set(sys.modules)
from minifunc.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["estimate", "--phi", "shannon", "--input", sys.argv[1]])
added = set(sys.modules) - started
print(code, sorted(m for m in ("gzip", "bz2", "lzma") if m in added))
"""
        proc = _run_child(child, str(path))
        assert proc.stdout == "0 []\n", proc.stderr

    def test_cli_import_leaves_out_importlib_resources(self):
        # only schema_path needs it; the child runs without site, whose .pth
        # hooks may load it at start, with numpy's site-packages on its path
        env = _child_env()
        site_packages = str(Path(np.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([env["PYTHONPATH"], site_packages])
        child = "import sys, minifunc.cli; print('importlib.resources' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", child], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.stdout == "False\n", proc.stderr

    def test_no_pool_modules_loaded(self):
        # --jobs imports multiprocessing only when it forks
        child = """
import sys
import minifunc, minifunc.cli
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""
        proc = _run_child(child)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_runs_with_scipy_blocked(self):
        # scipy is a test-only dependency: the library must run without it
        child = """
import contextlib, io, sys
sys.modules["scipy"] = None
import minifunc
from minifunc.cli import main
pair = minifunc.moment_matched_pair(minifunc.shannon_functional(), 8, (0.0, 1.0))
assert 0.0 < minifunc.poisson_mixture_tv(pair, 1, 1).numeric_tv < 1e-8
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["lower-bound", "--phi", "power:0.5", "--k", "1000", "--n", "1000",
                 "--construction", "composite", "--gap", "1e-6"]) == 0
"""
        proc = _run_child(child)
        assert proc.returncode == 0, proc.stderr
