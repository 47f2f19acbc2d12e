"""Suite-wide pytest configuration.

``pyproject.toml`` sets ``timeout = 300``, a hang ceiling that the
``pytest-timeout`` plugin enforces where it is installed. Without the
plugin pytest would warn about an unknown config option on every run,
so the key is registered here, inert, only when the plugin is absent.
"""

import importlib.util


def pytest_addoption(parser):
    if importlib.util.find_spec("pytest_timeout") is None:
        parser.addini("timeout", "hang ceiling in seconds (enforced by pytest-timeout)")
