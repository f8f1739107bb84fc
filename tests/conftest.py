import pytest

from irgalab import irga, linalg


@pytest.fixture
def last_check(monkeypatch):
    """An empty float-check slot (``irga._LAST_CHECK``) for one test, the
    module's own restored after; calling the result empties it again."""

    def empty():
        monkeypatch.setattr(irga, "_LAST_CHECK", (None, None, None))

    empty()
    return empty


@pytest.fixture
def lapack_calls(monkeypatch):
    """The names of the LAPACK routines called through ``linalg._lapack()``
    during one test, in call order."""
    lapack = linalg._lapack()
    calls = []

    def counted(name, routine):
        return lambda *args, **kwargs: calls.append(name) or routine(*args, **kwargs)

    for name in ("dpotrf", "dgesv", "dgetrf", "dgetrs"):
        monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
    return calls
