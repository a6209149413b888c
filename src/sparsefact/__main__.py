"""`python -m sparsefact ...` runs the command line, as `sparsefact ...`
does once the package is installed."""

from .cli import main

if __name__ == "__main__":
    main()
