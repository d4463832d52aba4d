from lawvere.cli import main

raise SystemExit(main())
