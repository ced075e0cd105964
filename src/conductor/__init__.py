"""Central conductors of group rings over p-adic integer rings.

The package computes the Jacobinski conductor of o[G] for finite G and
the central conductor of the completed group algebra of H x| Z_p for an
odd prime p, together with brute-force cross-checks, annihilation and
Fitting-ideal consequences, and a command line front end.

Import names from the module that defines them.  The package imports no
submodule, so each ``conductor`` subcommand loads only what it runs.
"""

__version__ = "0.1.0"
