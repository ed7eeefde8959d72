from __future__ import annotations

import ttr


def test_every_export_resolves():
    # A name deleted from the package but left in __all__ fails here, not at a caller's import.
    assert [name for name in ttr.__all__ if not hasattr(ttr, name)] == []
    assert len(set(ttr.__all__)) == len(ttr.__all__)
