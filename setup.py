"""Package metadata (the only copy: there is no ``pyproject.toml``).

``pip install -e .`` works on minimal offline environments whose setuptools
cannot build PEP 660 editable wheels (no ``wheel`` package).  scipy is
required: every Dijkstra — point to point, batched, and the rows of the
landmark and boundary tables — runs on its C implementation.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
