"""Text files given either as a path or as an already open stream."""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["text_stream"]


@contextmanager
def text_stream(target, mode="r"):
    """Yield ``target`` as a text stream.

    A path (str, bytes or os.PathLike) is opened as ASCII text in
    ``mode`` and closed on exit; an open stream is yielded as it is and
    left open for its owner.
    """
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        with open(target, mode, encoding="ascii") as stream:
            yield stream
    else:
        yield target
