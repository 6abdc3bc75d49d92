"""Setuptools build script for the ``repro`` package.

The offline environment has no ``wheel`` package, so PEP-660 editable
installs are unavailable; a ``setup.py`` lets ``pip install -e .`` fall
back to the legacy ``setup.py develop`` path.  There is no
``pyproject.toml``: the metadata lives here.  The version is read from
``src/repro/__init__.py`` as text, so building does not import the package.
"""

import pathlib
import re

from setuptools import find_packages, setup

_INIT = pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"$', _INIT.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
)
