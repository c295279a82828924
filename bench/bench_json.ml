include Smrp_obs.Json
