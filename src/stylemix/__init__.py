"""Variety-maximizing allocation of limited-quantity styles to stores."""
