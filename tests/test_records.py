"""Random records at the JSON boundary: loaders raise ValueError and nothing else.

``Polynomial.from_json``, ``TruthTable.from_json`` and ``Circuit.from_json``
read files a user hands over.  Whatever such a file holds (wrong types,
bools, floats, NaN and Infinity, nested lists, huge ints, missing and
extra keys), a loader either returns an object or raises ``ValueError``
with a message; ``verify --file`` and the ``--table`` of ``gen`` and
``eval`` then turn that error into exit 2 (exit 3 for the size guard, a
``ValueError`` too) and print the message on one line, never a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from fpminpoly import cli
from fpminpoly.circuit import Circuit
from fpminpoly.oracle import TruthTable
from fpminpoly.polyring import Polynomial, SizeGuardError

#: Huge ints, past any modulus, arity or entry a record can hold.
HUGE = st.sampled_from([2**64, 10**30 + 1, -(2**100), 3**200])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.integers(), HUGE,
                    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                    st.text(max_size=3))
JSON = st.recursive(SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12)
#: Values near the valid ones: small primes and non-primes, wrong types.
MODULI = st.one_of(st.sampled_from([2, 3, 5, 7, 0, 1, 4, -3, 65521, 2**70,
                                    "3", 3.0, True, None, [3]]), JSON)
COUNTS = st.one_of(st.sampled_from([0, 1, 2, 3, -1, 30, 10**6, 2.0, True, "2", None]),
                   JSON)
ENTRIES = st.one_of(st.lists(st.one_of(st.integers(-1, 8), SCALARS), max_size=30),
                    st.lists(st.integers(0, 2), min_size=9, max_size=9), JSON)


@st.composite
def near_record(draw, fields):
    """A dict with the given fields (name -> strategy), some dropped or extra."""
    record = {}
    for name, values in fields.items():
        if draw(st.integers(0, 9)):
            record[name] = draw(values)
    if not draw(st.integers(0, 5)):
        record[draw(st.text(max_size=4))] = draw(JSON)
    return record


REFERENCES = st.one_of(st.integers(-1, 4), SCALARS)
GATE = near_record({"op": st.one_of(st.sampled_from(
                        ["input", "const", "scale", "add", "sub", "mul", "xor"]), SCALARS),
                    "index": REFERENCES, "value": REFERENCES,
                    "args": st.one_of(st.lists(REFERENCES, max_size=4), SCALARS)})
POLYNOMIAL_RECORDS = st.one_of(
    near_record({"p": MODULI, "n": COUNTS, "coeffs": ENTRIES}), JSON)
TABLE_RECORDS = st.one_of(
    near_record({"p": MODULI, "arity": COUNTS, "values": ENTRIES}), JSON)
CIRCUIT_RECORDS = st.one_of(
    near_record({"p": MODULI, "inputs": COUNTS, "output": REFERENCES,
                 "gates": st.one_of(st.lists(GATE, max_size=5), JSON)}), JSON)
#: File contents: mostly JSON of a record, sometimes text that is not JSON.
POLYNOMIAL_TEXTS = st.one_of(POLYNOMIAL_RECORDS.map(json.dumps), st.text(max_size=20))
TABLE_TEXTS = st.one_of(TABLE_RECORDS.map(json.dumps), st.text(max_size=20))


def load_error(loader, text):
    """The ValueError ``loader`` raises on ``text``, or None when it loads."""
    try:
        loader(text)
    except ValueError as exc:
        assert str(exc)
        return exc
    return None


@pytest.fixture(scope="module")
def record_file(tmp_path_factory):
    """One file per module, rewritten for every example."""
    return tmp_path_factory.mktemp("records") / "record.json"


def run_cli(argv, path, text):
    """Exit code and stderr of an in-process CLI call with ``text`` as the file."""
    path.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([arg if arg != "FILE" else str(path) for arg in argv])
    return code, err.getvalue()


def assert_cli_reports(argv, path, text, exc):
    """The CLI exits 3 for a size guard and 2 for any other load error, with
    one ``fpminpoly:`` line on stderr."""
    code, err = run_cli(argv, path, text)
    if isinstance(exc, SizeGuardError):
        assert code == cli.EXIT_SIZE_GUARD and err.startswith("fpminpoly: size guard: ")
    else:
        assert code == cli.EXIT_USAGE and err.startswith("fpminpoly: error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and len(err.strip()) > len("fpminpoly: error:")


class TestLoadersRaiseOnlyValueError:
    @settings(max_examples=200, deadline=None)
    @given(POLYNOMIAL_TEXTS)
    def test_polynomial(self, text):
        load_error(Polynomial.from_json, text)

    @settings(max_examples=200, deadline=None)
    @given(TABLE_TEXTS)
    def test_truth_table(self, text):
        load_error(TruthTable.from_json, text)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(CIRCUIT_RECORDS.map(json.dumps), st.text(max_size=20)))
    def test_circuit(self, text):
        load_error(Circuit.from_json, text)


#: Texts nested past the JSON parser's recursion limit: bare and inside a record.
DEEP_TEXTS = ["[" * 200_000, '{"p": 3, "n": 2, "coeffs": ' + '{"a": ' * 200_000,
              "[" * 100_000 + "]" * 100_000]


class TestDeepNesting:
    @pytest.mark.parametrize("loader", [Polynomial.from_json, TruthTable.from_json,
                                        Circuit.from_json],
                             ids=["polynomial", "truth_table", "circuit"])
    @pytest.mark.parametrize("text", DEEP_TEXTS, ids=["open", "in_record", "closed"])
    def test_loaders_refuse_as_malformed(self, loader, text):
        with pytest.raises(ValueError, match="^malformed .* record: nesting too deep$"):
            loader(text)


#: Records cut off mid-text, one per loader, each valid JSON when whole.
TRUNCATED = {"polynomial": (Polynomial.from_json, '{"p": 3, "n": 1, "coeffs": [0, 1'),
             "truth table": (TruthTable.from_json, '{"p": 3, "arity": 1,\n'),
             "circuit": (Circuit.from_json, '{"p": 2, "inputs": 1, "gates": [{"op"')}


class TestSyntaxErrors:
    @pytest.mark.parametrize("record", TRUNCATED)
    def test_loaders_refuse_as_malformed(self, record):
        loader, text = TRUNCATED[record]
        with pytest.raises(ValueError, match=f"^malformed {record} record: Expecting .*"
                                             r"line \d+ column \d+ \(char \d+\)$"):
            loader(text)

    @pytest.mark.parametrize("argv, record", [
        (["verify", "--func", "max", "--p", "3", "--n", "1", "--file", "FILE"], "polynomial"),
        (["gen", "--table", "FILE"], "truth table"),
        (["eval", "--table", "FILE", "--point", "0"], "truth table")],
        ids=["verify_file", "gen_table", "eval_table"])
    def test_cli_names_the_record(self, record_file, argv, record):
        code, err = run_cli(argv, record_file, TRUNCATED[record][1])
        assert code == cli.EXIT_USAGE and err.count("\n") == 1
        assert err.startswith(f"fpminpoly: error: malformed {record} record: Expecting ")


class TestCliMapsLoadErrors:
    @settings(max_examples=80, deadline=None)
    @given(POLYNOMIAL_TEXTS)
    def test_verify_file(self, record_file, text):
        exc = load_error(Polynomial.from_json, text)
        if exc is not None:
            assert_cli_reports(["verify", "--func", "max", "--p", "3", "--n", "2",
                                "--file", "FILE"], record_file, text, exc)

    @settings(max_examples=80, deadline=None)
    @given(TABLE_TEXTS)
    def test_gen_table(self, record_file, text):
        exc = load_error(TruthTable.from_json, text)
        if exc is not None:
            assert_cli_reports(["gen", "--table", "FILE"], record_file, text, exc)

    @settings(max_examples=80, deadline=None)
    @given(TABLE_TEXTS)
    def test_eval_table(self, record_file, text):
        exc = load_error(TruthTable.from_json, text)
        if exc is not None:
            assert_cli_reports(["eval", "--table", "FILE", "--point", "0"],
                               record_file, text, exc)


class TestOneLineMessages:
    def test_gate_keys_are_quoted(self):
        # A key holding a newline is quoted, so the refusal stays on one line.
        text = '{"p":3,"inputs":1,"gates":[{"op":"input","index":0,"a\\nb":1}],"output":0}'
        message = str(load_error(Circuit.from_json, text))
        assert "\n" not in message
        assert message.endswith("got 'a\\nb', 'index', 'op'")
