"""Build hook: compile the optional kernel extension.

With Cython installed the extension is cythonized from _kernels.pyx;
without it the shipped, pre-generated _kernels.c is compiled.

The package works without the extension (a pure-Python twin is selected at
import time), so any failure here downgrades to a plain build instead of
aborting the install.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    # Compiler problems must not make the sdist uninstallable.
    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            warnings.warn(f"skipping compiled kernels: {exc}", stacklevel=1)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            warnings.warn(f"skipping compiled kernel {ext.name}: {exc}", stacklevel=1)


def _extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        # _kernels.c ships as the cythonized _kernels.pyx; compile it as is.
        cythonize = None
    ext = Extension(
        "spannerkit._kernels",
        ["src/spannerkit/_kernels.c" if cythonize is None else "src/spannerkit/_kernels.pyx"],
        # The pure-Python twin must agree bitwise. Two silent rewrites break
        # that: fused multiply-adds change the last ulp of dot products, and
        # gcc merges adjacent sin/cos calls into glibc sincos, whose results
        # can differ by one ulp from the separate functions.
        extra_compile_args=[
            "-ffp-contract=off",
            "-fno-builtin-sin",
            "-fno-builtin-cos",
        ],
    )
    return [ext] if cythonize is None else cythonize([ext], language_level="3")


setup(ext_modules=_extensions(), cmdclass={"build_ext": optional_build_ext})
