from .cli import main  # `python -m lpdo`, the lpdo command line
raise SystemExit(main())
