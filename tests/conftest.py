import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Derandomized examples keep the suite deterministic, no deadline keeps a
# loaded machine from failing a slow example, and no database means no
# example store.  Hypothesis still caches the constants it collects from
# source files, so its home directory is a temporary one for the session
# rather than .hypothesis/ in the working directory.
settings.register_profile("bandfec", derandomize=True, deadline=None, database=None)
settings.load_profile("bandfec")

_HOME = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    home = config.stash[_HOME] = tempfile.TemporaryDirectory(prefix="bandfec-hypothesis-")
    set_hypothesis_home_dir(home.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_HOME].cleanup()
