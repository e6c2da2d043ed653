"""Package metadata for ``repro``: the recursive mechanism for node DP.

The sources live under ``src/``; the version is read from
``src/repro/__init__.py`` so it has one home.  Install with
``pip install -e . --no-build-isolation`` (works offline), or check the
metadata with ``python setup.py --name --version``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="repro",
    version=_VERSION,
    description="The recursive mechanism for node differential privacy",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy>=1.15"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
