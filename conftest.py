"""Keep collection from changing the environment that tests run in.

Collecting perfbench/tests imports perfbench/run.py, which pins the BLAS
and OpenMP thread counts in os.environ for the benchmark process; the
environment is put back as it was once collection ends.
"""

import os

_environ = {}


def pytest_configure(config):
    _environ.update(os.environ)


def pytest_collection_finish(session):
    for key in set(os.environ) - set(_environ):
        del os.environ[key]
    os.environ.update(_environ)
