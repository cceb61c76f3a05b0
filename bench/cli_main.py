from ramify.cli import main; main()  # noqa: E702  (the `ramify` console script, without installing it)
