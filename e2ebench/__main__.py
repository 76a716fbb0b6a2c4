import sys

from e2ebench.run import main

sys.exit(main())
