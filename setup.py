"""Setuptools entry point: package metadata.

The environment used for reproduction has no network access and no ``wheel``
package, so PEP 517 editable installs (which build a wheel) are unavailable;
``setup.py develop`` handles installs instead.

The package declares no extension module.  The ``native`` decoder kernel
(``src/repro/phy/turbo/backends/_native/sisokernel.c``) is compiled with the
machine's C compiler the first time a process uses it and cached under
``${XDG_CACHE_HOME:-~/.cache}/repro/native/`` (see
:mod:`repro.phy.turbo.backends._native`).  Without a compiler the family
reports itself unavailable and everything runs, bit-identically, on the
numpy kernel.  The C sources ship as package data so installed copies can
build it too.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.9.0",
    description=(
        "Reproduction of an HSPA+ turbo-coded link over unreliable memory "
        "(DAC'12), with bit-identical numpy and native decoder kernels"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro.phy.turbo.backends._native": ["*.c", "*.h"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
)
