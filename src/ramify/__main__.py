"""Entry point for ``python -m ramify``; same as the ``ramify`` console script."""

from .cli import main

if __name__ == "__main__":
    main()
