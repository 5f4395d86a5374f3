import tempfile

# hypothesis caches constants read from the source under its storage
# directory (default ./.hypothesis) even without an example database, and
# already at collection; point it at a directory removed after the run.
_hypothesis_home = tempfile.TemporaryDirectory(prefix="hypothesis-")


def pytest_configure(config):
    try:
        from hypothesis.configuration import set_hypothesis_home_dir
    except ImportError:  # only the property tests need hypothesis
        return
    set_hypothesis_home_dir(_hypothesis_home.name)


def pytest_unconfigure(config):
    _hypothesis_home.cleanup()
