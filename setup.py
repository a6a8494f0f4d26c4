"""Setuptools shim.

The execution environment has setuptools but no ``wheel`` package, so PEP 660
editable installs fail with ``invalid command 'bdist_wheel'``.  A ``setup.py``
lets ``pip install -e .`` fall back to the legacy ``setup.py develop`` code
path, which needs no wheel.  All metadata, including the required
``numpy``, ``scipy`` and ``orjson`` dependencies, lives in the
``[project]`` table of ``pyproject.toml``.
"""

from setuptools import setup

setup()
