"""The path-or-stream helper behind every CSV reader and writer."""

import io

import numpy as np

from acfv.mesh import build_uniform_mesh, export_mesh_csv
from acfv.stochastic import dump_increments, load_increments
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

    # The writers give a path the same bytes they give a stream.
    mesh = build_uniform_mesh(2)
    buf = io.StringIO()
    export_mesh_csv(mesh, buf)
    export_mesh_csv(mesh, path)
    assert path.read_bytes() == buf.getvalue().encode("ascii")
    values = np.array([0.5, -1e-300, 1.0 / 3.0])
    buf = io.StringIO()
    dump_increments(values, buf)
    dump_increments(values, path)
    assert path.read_bytes() == buf.getvalue().encode("ascii")
    np.testing.assert_array_equal(load_increments(path), values)
