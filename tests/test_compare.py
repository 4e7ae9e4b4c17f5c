"""tools/compare.py: the command line of this tree compared with itself."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS_PICKS = (11, 12, 14)  # corpus systems that finish in well under a second


def load_compare():
    spec = importlib.util.spec_from_file_location("compare", ROOT / "tools" / "compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tree_compared_with_itself_is_identical():
    compare = load_compare()
    # a timing line, a JSON document and an input error (example1 is not involutive)
    runs = [["complete", "problems/janet3.pde"],
            ["ivp", "problems/janet3.pde", "--json"],
            ["monomial", "problems/example1.pde", "--action", "decompose"]]
    table = compare.table()
    assert all(argv in table for argv in runs)
    # the trace of every division is compared
    assert all(["complete", "problems/janet3.pde", "--trace", *division] in table
               for division in compare.DIVISIONS)
    got = compare.compare(ROOT, ROOT, runs)
    assert set(got.pop("finished_both_seconds")) == {"this", "other"}
    assert got == {
        "runs": 3, "identical": 3, "differing": [], "past_limit": {"this": [], "other": []},
        "finished_one_side": {"this": [], "other": []}}


def test_corpus_compared_with_itself_is_identical(tmp_path):
    compare = load_compare()
    names = compare.write_corpus(tmp_path)
    assert len(names) == compare.CORPUS_SIZE
    runs = [["complete", names[k], "--cap", "200", *division]
            for k, division in zip(CORPUS_PICKS, compare.DIVISIONS[1:])]
    assert all(argv in compare.corpus_table(names) for argv in runs)
    got = compare.compare(ROOT, ROOT, runs, tmp_path, compare.CORPUS_LIMIT_S)
    assert set(got.pop("finished_both_seconds")) == {"this", "other"}
    assert got == {
        "runs": 3, "identical": 3, "differing": [], "past_limit": {"this": [], "other": []},
        "finished_one_side": {"this": [], "other": []}}


def test_first_difference_names_the_stream_and_line():
    first_difference = load_compare().first_difference
    assert first_difference((0, "a\nb\n", ""), (0, "a\nb\n", "")) is None
    assert first_difference((0, "a\nb\n", ""), (1, "a\nb\n", "")) == "exit 0 != 1"
    assert first_difference((0, "a\nb\n", ""), (0, "a\n", "")) == "stdout line 2: 'b' != '<end>'"
    assert first_difference((1, "", "x\n"), (1, "", "y\n")) == "stderr line 1: 'x' != 'y'"


def test_run_records_its_seconds():
    result, seconds = load_compare().run(ROOT, ["--help"])
    assert result[0] == 0 and result[1].startswith("usage: involute")
    assert 0 < seconds < 30


def test_run_finished_on_one_side_carries_its_seconds():
    # the first run finished here in 7.9 s and passed the limit on the other
    # side; the second the reverse; the third finished on both, identically
    report = load_compare().report
    runs = [["complete", "a.pde"], ["complete", "b.pde"], ["hilbert", "c.pde"]]
    done = (0, "out\n", "")
    mine = [(done, 7.9), (None, 8), (done, 0.2)]
    theirs = [(None, 8), (done, 3.25), (done, 0.3)]
    assert report(runs, mine, theirs) == {
        "runs": 3, "identical": 1, "differing": [],
        "past_limit": {"this": [runs[1]], "other": [runs[0]]},
        "finished_one_side": {"this": [{"argv": runs[0], "seconds": 7.9}],
                              "other": [{"argv": runs[1], "seconds": 3.25}]},
        "finished_both_seconds": {"this": 0.2, "other": 0.3}}


def test_seconds_are_added_up_before_they_are_rounded():
    report = load_compare().report
    runs = [["complete", name] for name in ("a.pde", "b.pde", "c.pde")]
    done = (0, "out\n", "")
    got = report(runs, [(done, 0.004)] * 3, [(done, 0.0049)] * 3)
    assert got["finished_both_seconds"] == {"this": 0.01, "other": 0.01}


def test_the_two_runs_of_each_argv_are_submitted_together(monkeypatch):
    # one worker starts the runs in the order they were submitted
    compare = load_compare()
    started = []

    def recorded(root, argv, cwd, limit):
        started.append((root, argv[1]))
        return (0, argv[1], ""), 0.5

    monkeypatch.setattr(compare, "run", recorded)
    monkeypatch.setattr(compare, "WORKERS", 1)
    runs = [["complete", name] for name in ("a.pde", "b.pde", "c.pde")]
    got = compare.compare("this", "other", runs)
    assert started == [(root, name) for name in ("a.pde", "b.pde", "c.pde")
                       for root in ("this", "other")]
    assert got["identical"] == 3 and got["finished_both_seconds"] == {"this": 1.5, "other": 1.5}
