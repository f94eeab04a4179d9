"""Setuptools metadata for the src-layout package.

Kept as plain setup.py (no pyproject.toml) so `pip install -e .` works
in offline environments where PEP 517 editable builds would need a
`wheel` download.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single-source the version from the package itself.
_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', _INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Multi-dimensional randomized response: local anonymization of "
        "categorical microdata (Domingo-Ferrer & Soria-Comas, ICDE 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={
        "repro.lint": ["api_snapshot.json"],
        "repro.obs": ["health_schema.json"],
    },
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={
        "console_scripts": [
            "repro-anonymize=repro.cli:main",
            "repro-lint=repro.lint.runner:main",
            "repro-experiments=repro.experiments.runner:main",
        ],
    },
)
