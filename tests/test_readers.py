"""The three CSV readers on mutated files: each parses the result or raises
its own error, never another exception."""

from contextlib import suppress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsm_degroot.fitting import read_grid_csv
from gsm_degroot.graph import GraphError, load_edge_list
from gsm_degroot.ingest import SeriesError, load_series

# (reader, the error it owns, a valid file it reads)
READERS = {
    "series": (load_series, SeriesError, "timestamp,value\n0,0.5\n1,0.4\n2,0.3\n4,0.2\n"),
    "dated series": (load_series, SeriesError, "timestamp,value\n2020-01-01,1.0\n2020-01-02,2.0\n2020-01-04,0.5\n"),
    "grid": (read_grid_csv, ValueError, "mu,gamma,score\n0.0,0.0,0.25\n0.0,1.0,0.5\n1.0,0.0,nan\n1.0,1.0,0.125\n"),
    "edges": (load_edge_list, GraphError,
              "source,target,weight\n0,0,0.5\n2,0,0.5\n0,1,1.0\n1,2,0.25\n2,2,0.75\n"),
}

# cells at the edges of what the readers parse: blanks, words, signs,
# non-finite and overflowing floats, dates, node ids at and past the limit
# of graph.n, and integers past int64
CELLS = ["", " ", "x", "-", "0", "-1", "1.5", "nan", "inf", "-inf", "1e308", "1e400", "1e-320", "2020-01-03",
         "2020-13-45", '"', "999999", "1000000", "1" + "0" * 30, "-" + "9" * 30]
cells = st.sampled_from(CELLS) | st.text(alphabet='0123456789.-e,x" ', max_size=8)
mutations = st.lists(st.one_of(
    st.tuples(st.just("replace"), st.integers(0, 9), st.integers(0, 3), cells),
    st.tuples(st.just("insert"), st.integers(0, 9), st.lists(cells, max_size=4)),
    st.tuples(st.just("delete"), st.integers(0, 9)),
    st.tuples(st.just("truncate"), st.integers(0, 9), st.integers(0, 12)),
), min_size=1, max_size=4)


def mutate(text: str, steps) -> str:
    """text with each step applied in turn to the line at its index, taken
    modulo the line count (a step on a file with no lines inserts only)."""
    lines = text.splitlines()
    for kind, index, *rest in steps:
        if not lines and kind != "insert":
            continue
        at = index % (len(lines) + (kind == "insert"))
        if kind == "replace":
            fields = lines[at].split(",")
            fields[rest[0] % len(fields)] = rest[1]
            lines[at] = ",".join(fields)
        elif kind == "insert":
            lines.insert(at, ",".join(rest[0]))
        elif kind == "delete":
            del lines[at]
        else:
            lines[at] = lines[at][:rest[0]]
    return "".join(f"{line}\n" for line in lines)


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=300, deadline=None)
@given(steps=mutations)
# a node id past int64 once escaped load_edge_list as OverflowError
@example(steps=[("replace", 3, 1, "1" + "0" * 30)])
@example(steps=[("replace", 3, 0, "-" + "9" * 30)])
# two weights of 1e308 into node 0 overflowed their sum with a RuntimeWarning
@example(steps=[("replace", 1, 2, "1e308"), ("replace", 2, 2, "1e308")])
def test_a_mutated_file_parses_or_raises_the_readers_error(tmp_path_factory, name, steps):
    reader, error, text = READERS[name]
    path = tmp_path_factory.getbasetemp() / f"mutated-{name.replace(' ', '-')}.csv"
    path.write_text(mutate(text, steps))
    with suppress(error):
        reader(path)


@pytest.mark.parametrize("name", READERS)
def test_the_unmutated_files_parse(tmp_path, name):
    reader, _, text = READERS[name]
    path = tmp_path / "valid.csv"
    path.write_text(text)
    reader(path)
