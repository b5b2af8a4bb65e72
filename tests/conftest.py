"""Every test starts from a host that has loaded no code: the program
store and the compiler's source memo are emptied first, so no count of
load work depends on which tests ran before."""

import pytest

from repro.vm import programs


@pytest.fixture(autouse=True)
def cold_program_store():
    programs.clear()
    yield
