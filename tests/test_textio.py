"""The path-or-stream helper behind every CSV reader and writer."""

import io

import numpy as np

from acfv.experiments import write_states_csv
from acfv.stochastic import load_increments
from acfv.textio import text_stream


def test_text_stream_path_and_stream_targets(tmp_path):
    buf = io.StringIO()
    with text_stream(buf, "w") as out:
        out.write("a,b\n")
    assert out is buf and not buf.closed
    path = tmp_path / "rows.csv"
    for target in (path, str(path)):
        with text_stream(target, "w") as out:
            out.write("a,b\n")
        assert out.closed
        assert path.read_bytes() == b"a,b\n"
    with text_stream(path) as lines:
        assert list(lines) == ["a,b\n"]

    # A writer gives a path the same bytes it gives a stream, and a reader
    # takes either.
    states = [np.array([0.5, -1e-300]), np.array([1.0 / 3.0, -0.0])]
    buf = io.StringIO()
    write_states_csv(buf, states, 0)
    write_states_csv(path, states, 0)
    assert path.read_bytes() == buf.getvalue().encode("ascii")
    path.write_text("0.5\n-1e-300\n0.33333333333333331\n")
    values = np.array([0.5, -1e-300, 1.0 / 3.0])
    np.testing.assert_array_equal(load_increments(path), values)
    np.testing.assert_array_equal(load_increments(io.StringIO(path.read_text())), values)
