"""permres: exact permutation-group computations (stabilizer chains, base
sizes, distinguishing numbers, classical-group actions) and certified checks
of the bounds in "Permutation groups with restricted stabilizers".

Importing the package loads none of its modules; each is imported on its
own, and the command line (permres.cli) loads per verb only what that verb
uses.
"""

__version__ = "0.1.0"
