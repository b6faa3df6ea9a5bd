"""Mutation fuzzing of the CLI over the corpus: however a document is
damaged, a run with --verify ends with exit 0, 1 or 2, at most one
`error:` line on stderr and no escaping exception."""

import io
import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xcsolve import cli
from xcsolve.cli import EXIT_ERROR, EXIT_OK, EXIT_UNKNOWN, RunConfig

DOCS = [path.read_text() for path in
        sorted((pathlib.Path(__file__).parent / "corpus").glob("*.xml"))]

NUMBER = re.compile(r"-?\d+")
NAME = re.compile(r'name="([^"]+)"')
PARAMETERS = re.compile(r"<parameters>(.*?)</parameters>", re.S)
# boundaries and malformations that a corrupted number turns into
ODD_NUMBERS = ["0", "-1", "1", "65537", "2147483648", "-99999999999999999999",
               "9" * 5000, "+5", "1..0", "x", ""]


def drop(draw, text):
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 40)))
    return text[:i] + text[j:]


def duplicate(draw, text):
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, min(len(text), i + 80)))
    return text[:j] + text[i:j] + text[j:]


def splice(draw, text):
    other = draw(st.sampled_from(DOCS))
    i = draw(st.integers(0, len(other)))
    j = draw(st.integers(i, min(len(other), i + 120)))
    k = draw(st.integers(0, len(text)))
    return text[:k] + other[i:j] + text[k:]


def corrupt_number(draw, text):
    numbers = list(NUMBER.finditer(text))
    if not numbers:
        return text
    m = draw(st.sampled_from(numbers))
    return text[:m.start()] + draw(st.sampled_from(ODD_NUMBERS)) + text[m.end():]


def swap_names(draw, text):
    names = sorted(set(NAME.findall(text)))
    if len(names) < 2:
        return text
    a, b = draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    pattern = r"(?<!\w)(%s|%s)(?!\w)" % (re.escape(a), re.escape(b))
    return re.sub(pattern, lambda m: b if m.group(0) == a else a, text)


def truncate(draw, text):
    return text[:draw(st.integers(0, len(text)))]


def wrap_parameters(draw, text):
    bodies = list(PARAMETERS.finditer(text))
    if not bodies:
        return text
    m = draw(st.sampled_from(bodies))
    open_, close = draw(st.sampled_from(["[]", "{}"]))
    k = draw(st.integers(1, 5000))
    return text[:m.start(1)] + open_ * k + m.group(1) + close * k + text[m.end(1):]


MUTATIONS = [drop, duplicate, splice, corrupt_number, swap_names, truncate,
             wrap_parameters]


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutant.xml"


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_corpus_documents_end_cleanly(mutant_path, data):
    text = data.draw(st.sampled_from(DOCS))
    for _ in range(data.draw(st.integers(1, 3))):
        text = data.draw(st.sampled_from(MUTATIONS))(data.draw, text)
    mutant_path.write_text(text)
    config = RunConfig(str(mutant_path), mode=data.draw(st.sampled_from(["first", "all"])),
                       verify=True, node_limit=20000, time_limit=5)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(config, out=out, err=err)
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_UNKNOWN)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) == (1 if code == EXIT_ERROR else 0)
