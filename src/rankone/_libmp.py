"""mpmath's raw-float library, loaded without the rest of mpmath.

rankone computes on the raw floats of ``mpmath.libmp``, the (sign, mantissa,
exponent, bitcount) tuples and the functions on them, and uses nothing else
of mpmath.  ``import mpmath`` would also build mpmath's three contexts and
load ``inspect``, ``tempfile``, ``shutil``, ``urllib.parse`` and more, which
costs a zeta or portrait process more start-up than some of its
mathematics; ``libmp`` itself imports only ``os``, ``sys``, ``math`` and
``bisect``.

So this module finds the installed mpmath without executing it, runs that
package's ``libmp/`` directory as the private package
``rankone._mpmath_libmp`` and re-exports its names.  It registers nothing
under mpmath's own names, so a later ``import mpmath`` in the same process
loads mpmath, with its own ``libmp``, as usual.  The two copies build equal
tuples; rankone compares raw floats by value only.  This is the only module
of rankone that imports from mpmath; modules that compute on raw floats
import their names from here.
"""

import importlib.util
import os
import sys

PACKAGE = "rankone._mpmath_libmp"


def _load_libmp() -> None:
    spec = importlib.util.find_spec("mpmath")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("rankone needs the mpmath package, which is not installed")
    path = os.path.join(spec.submodule_search_locations[0], "libmp")
    libmp_spec = importlib.util.spec_from_file_location(
        PACKAGE, os.path.join(path, "__init__.py"), submodule_search_locations=[path]
    )
    module = importlib.util.module_from_spec(libmp_spec)
    # registered before it runs, so its relative imports find their parent
    sys.modules[PACKAGE] = module
    try:
        libmp_spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[PACKAGE]
        raise


_load_libmp()

from rankone._mpmath_libmp import *
