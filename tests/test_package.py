"""The public surface of the ``abpipe`` package."""

import abpipe


def test_every_public_name_resolves():
    dangling = [name for name in abpipe.__all__ if not hasattr(abpipe, name)]
    assert not dangling, f"abpipe.__all__ names missing attributes: {dangling}"
