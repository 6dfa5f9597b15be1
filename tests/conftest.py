"""Every ``@given`` test draws the same examples on every run, with its own
example count: a tier-1 result is a function of the tree."""
import pytest
from hypothesis import settings

settings.register_profile("tree", derandomize=True)
settings.load_profile("tree")


@pytest.fixture(autouse=True)
def no_temporary_file_left(request):
    """A test that used ``tmp_path`` leaves no ``*.tmp`` file or directory under it:
    every writer removes its temporary names, whether its run succeeds or fails."""
    tmp = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp is not None:
        left = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*.tmp"))
        assert not left, f"temporary files left under tmp_path: {left}"
