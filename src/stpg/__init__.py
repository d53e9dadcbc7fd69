"""Space-time Petrov-Galerkin solver for parabolic problems with random
coefficients, with a numerical verification harness for its stability
constants, norm equivalences, quasi-optimality bounds and moment
estimates. The modules are the API: the package exports no name itself."""
